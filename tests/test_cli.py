import io
import json
import os
from pathlib import Path

import pytest

from k3moonshine.acceptance import TABLE3_ATYPICAL, TABLE3_ROWS
from k3moonshine.cli import main, emit


def run(argv):
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue()


def test_symt_rational():
    status, out = run(["symt", "--class", "2A", "--terms", "8", "--rational"])
    assert status == 0
    assert "2" in out and "t^2" in out          # the rational form line
    assert "-4" in out                          # series coefficient


def test_ellgenus_json_exact_rationals():
    status, out = run(["--format", "json", "ellgenus", "--q-order", "2"])
    assert status == 0
    doc = json.loads(out)
    rows = doc["rows"]
    flat = [cell for row in rows for cell in row]
    assert "20" in flat and "-1" in flat
    # exact rationals only: every cell parses as a fraction string
    from fractions import Fraction
    for cell in flat:
        Fraction(cell)


def test_deterministic_output():
    s1, o1 = run(["ellgenus", "--q-order", "3"])
    s2, o2 = run(["ellgenus", "--q-order", "3"])
    assert s1 == s2 == 0
    assert o1 == o2


def test_unknown_subcommand_usage_error():
    status, _ = run(["definitely-not-a-command"])
    assert status == 2


BAD_INPUT = [
    (["ellgenus", "--q-order", "0"], "--q-order"),
    (["equivariant", "--class", "2A", "--q-order", "0"], "--q-order"),
    (["equivariant", "--class", "9Z"], "--class"),
    (["symt", "--class", "2A", "--terms", "0"], "--terms"),
    (["symt", "--class", "11A"], "--class"),
    (["n4-decompose", "--q-order", "0"], "--q-order"),
    (["n4-decompose", "--n", "-4", "--q-order", "2"], "--n"),
    (["genus-decompose", "--q-order", "-1"], "--q-order"),
    (["m23-table", "--t-order", "-1"], "--t-order"),
    (["moonshine-verify", "--class", "3A", "--q-order", "0"], "--q-order"),
    (["moonshine-verify", "--class", "4A-M24"], "--class"),
    (["audit-integrality", "--t-order", "0"], "--t-order"),
    (["verify-all", "--q-order", "0"], "--q-order"),
    (["verify-all", "--t-order", "0"], "--t-order"),
]


@pytest.mark.parametrize("argv,flag", BAD_INPUT,
                         ids=[" ".join(argv) for argv, _ in BAD_INPUT])
def test_bad_input_is_usage_error(argv, flag, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument {flag}:" in err


def test_genus_decompose():
    status, out = run(["genus-decompose", "--q-order", "3"])
    assert status == 0
    assert "24" in out and "-2" in out and "90" in out


def test_n4_decompose_row0():
    status, out = run(["n4-decompose", "--n", "0", "--q-order", "6"])
    assert status == 0
    assert "-2" in out


@pytest.mark.parametrize("q_order", [1, 2, 3])
@pytest.mark.parametrize("n", range(11))
def test_n4_decompose_table3(n, q_order):
    # N > q_order + 3: ch_{V_N} vanishes below the truncation
    status, out = run(["--format", "json", "n4-decompose", "--n", str(n),
                       "--q-order", str(q_order)])
    assert status == 0
    doc = json.loads(out)
    assert doc["rows"] == [[str(v) for v in TABLE3_ROWS[n][:q_order]]]
    assert doc["atypical"] == str(TABLE3_ATYPICAL[n])


def test_data_dir_applies_to_one_command(tmp_path):
    from k3moonshine import tables
    before = tables.data_dir()
    codes = [run(["lattice-check"])[0],
             run(["--data-dir", str(tmp_path), "lattice-check"])[0],
             run(["lattice-check"])[0]]
    assert codes == [0, 3, 0]
    assert tables.data_dir() == before


def test_moonshine_verify():
    status, out = run(["moonshine-verify", "--class", "3A", "--q-order", "4"])
    assert status == 0
    assert "True" in out


def test_moonshine_verify_reports_a_split_trace_disagreement(monkeypatch):
    # f_g from traces that disagree with the fixed-point split: a mismatch
    # (exit 1), not a crash
    from k3moonshine import mckay
    traces = mckay.f_from_traces
    monkeypatch.setattr(mckay, "f_from_traces",
                        lambda label: [2 * c for c in traces(label)])
    status, out = run(["moonshine-verify", "--class", "3A", "--q-order", "4"])
    assert status == 1
    assert "agree: False" in out


@pytest.mark.parametrize("exc", [KeyError("2A"), RuntimeError("boom")],
                         ids=["KeyError", "RuntimeError"])
def test_internal_error_exit_code(exc, monkeypatch, capsys):
    from k3moonshine import cli

    def crash(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_ellgenus", crash)
    assert main(["ellgenus", "--q-order", "1"]) == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and type(exc).__name__ in err


def test_verify_all_reports_a_crashed_criterion(monkeypatch, capsys):
    # a raising criterion is an internal error (exit 4), printed as [ERROR],
    # and the criteria after it still run
    from k3moonshine import acceptance, cli

    def crash(**_):
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "CHECKS", (
        ("1 passes", lambda **_: (True, "fine")),
        ("2 crashes", crash),
        ("3 fails", lambda **_: (False, "wrong")),
    ))
    assert main(["verify-all"]) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    lines = [ln.split(" (")[0] + ln.split(")", 1)[1]
             for ln in out.splitlines()]
    assert lines == [
        "[PASS] criterion 1 passes",
        "[ERROR] criterion 2 crashes -- exception: RuntimeError('boom')",
        "[FAIL] criterion 3 fails -- wrong",
    ]
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_verify_all_json_reports_a_crashed_criterion(monkeypatch, capsys):
    # on an ERROR stdout is still one JSON document, and the exit code is 4
    from k3moonshine import acceptance, cli

    def crash(**_):
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "CHECKS", (
        ("1 passes", lambda **_: (True, "fine")),
        ("2 crashes", crash),
        ("3 fails", lambda **_: (False, "wrong")),
    ))
    assert main(["--format", "json", "verify-all"]) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["ok"] is False
    assert [(c["criterion"], c["status"], c["ok"], c["detail"])
            for c in doc["criteria"]] == [
        ("1 passes", "PASS", True, "fine"),
        ("2 crashes", "ERROR", False, "exception: RuntimeError('boom')"),
        ("3 fails", "FAIL", False, "wrong"),
    ]
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_verify_all_json_and_text():
    # criterion 8 is the only FAIL ([N : K''] = 1 against the published 2),
    # so both formats exit 1; the text lines carry the same verdicts
    status, out = run(["--format", "json", "verify-all"])
    assert status == 1
    doc = json.loads(out)
    assert set(doc) == {"criteria", "ok"} and doc["ok"] is False
    crit = doc["criteria"]
    assert [c["criterion"].split()[0] for c in crit] == \
        [str(n) for n in range(1, 11)]
    for c in crit:
        assert set(c) == {"criterion", "status", "ok", "detail", "seconds"}
        assert c["status"] == ("PASS" if c["ok"] else "FAIL")
        assert c["seconds"] >= 0
    assert [(c["criterion"], c["status"]) for c in crit if not c["ok"]] == \
        [("8 lattice suite", "FAIL")]
    assert crit[7]["detail"].startswith("[N : K''] = 1, not 2")
    status, text = run(["verify-all"])
    assert status == 1
    lines = [ln.split(" (")[0] + ln.split(")", 1)[1]
             for ln in text.splitlines()]
    assert lines == [
        f"[{c['status']}] criterion {c['criterion']}"
        + ("" if c["ok"] else " -- " + c["detail"]) for c in crit]


CLI_GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "goldens", "cli.json")


@pytest.mark.parametrize("t_order", ["1", "6"])
def test_audit_integrality_matches_the_cli_goldens(t_order):
    with open(CLI_GOLDENS) as fh:
        want = json.load(fh)[f"audit-integrality --t-order {t_order}"]
    status, out = run(["audit-integrality", "--t-order", t_order])
    assert (status, out) == (want["exit"], want["stdout"])


def test_whole_cli_grid_matches_the_goldens():
    # every recorded request, in one process: memoized builders shared
    # across requests must serve the same bytes as a fresh process
    with open(CLI_GOLDENS) as fh:
        goldens = json.load(fh)
    assert len(goldens) >= 120
    wrong = [request for request, want in goldens.items()
             if run(request.split(" ")) != (want["exit"], want["stdout"])]
    assert wrong == []


def test_csv_format():
    status, out = run(["--format", "csv", "symt", "--class", "3A",
                       "--terms", "4"])
    assert status == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert lines[0] == "n,coefficient"
    assert lines[1] == "0,2"


def test_emit_empty_report():
    buf = io.StringIO()
    emit({"title": "empty", "columns": [], "rows": []}, "text", buf)
    assert buf.getvalue().startswith("empty")


def test_malformed_fixture_field_is_data_error(tmp_path, capsys):
    from k3moonshine import tables
    for name in os.listdir(tables.data_dir()):
        if name.endswith(".tbl"):
            text = Path(tables.data_dir(), name).read_text()
            if name == "mukai_01.tbl":
                text = text.replace("order 168\n", "order 168x\n")
            (tmp_path / name).write_text(text)
    assert main(["--data-dir", str(tmp_path), "lattice-check"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "data error" in err and "168x" in err


def test_malformed_fixture_is_data_error(tmp_path):
    import shutil
    import subprocess
    import sys
    from k3moonshine import tables
    for name in os.listdir(tables.data_dir()):
        if name.endswith(".tbl"):
            shutil.copy(os.path.join(tables.data_dir(), name), tmp_path)
    co0 = tmp_path / "co0_restricted.tbl"
    co0.write_text(co0.read_text().replace(
        "char gen3 1 2024 2024 -8 26 -4 4 -2 1 -2",
        "char gen3 1 2024 2024 -8 26 -4 4 -2 1 -1"))
    src = os.path.dirname(os.path.dirname(tables.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "k3moonshine.cli", "--data-dir",
         str(tmp_path), "lattice-check"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "exterior power 3" in proc.stderr
