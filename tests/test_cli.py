import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from k3moonshine.acceptance import TABLE3_ATYPICAL, TABLE3_ROWS
from k3moonshine.cli import main, emit
from k3moonshine.series import InsufficientPrecisionError


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


# The input truncations the CLI built at before every decomposition caller
# used the rule of n4char: the rule must never exceed them.
OLD_MARGIN = {"NS": lambda q: (q + 2) * 24, "R": lambda q: (2 * q + 10) * 24,
              "genus": lambda q: (2 * q + 6) * 24}


def _report(argv):
    from k3moonshine.cli import build_parser
    args = build_parser().parse_args(argv)
    report, status = args.func(args)
    assert status == 0
    return report


# The two commands read closed forms and build nothing; the truncation
# tests below build what the commands once built and decompose it, at
# the derived truncation and above, to the rows the commands print.

@pytest.mark.parametrize("q_order", [1, 2, 6, 13])
@pytest.mark.parametrize("n", [0, 1, 5, 10])
@pytest.mark.parametrize("sector", ["NS", "R"])
def test_n4_decompose_builds_at_the_derived_truncation(sector, n, q_order):
    from k3moonshine.n4char import (
        ch_vn_h_form, decompose_into_n4, decomposition_truncation,
    )
    from route_oracle import truncation_in_sector
    report = _report(["n4-decompose", "--n", str(n), "--q-order",
                      str(q_order), "--sector", sector])
    t = truncation_in_sector(q_order, sector)
    for u in (t, t + 24, OLD_MARGIN[sector](q_order)):
        s = ch_vn_h_form(n, u)
        if sector == "R":
            s = s.spectral_flow(+1).spectral_flow(-1)
        dec = decompose_into_n4(s)
        assert report["atypical"] == str(dec.atypical), u
        assert report["rows"] == \
            [[str(v) for v in dec.table_row(range(q_order))]], u
    assert t <= OLD_MARGIN[sector](q_order)
    if sector == "NS":
        assert t == decomposition_truncation(q_order) == \
            max(24 * q_order - 29, 7)
        with pytest.raises(InsufficientPrecisionError):
            decompose_into_n4(ch_vn_h_form(n, t - 1)).table_row(
                range(q_order))


@pytest.mark.parametrize("q_order", [1, 5, 20])
def test_genus_decompose_builds_at_the_twining_truncation(q_order):
    from k3moonshine.genus import elliptic_genus
    from k3moonshine.n4char import genus_A_coefficients, twining_truncation
    report = _report(["genus-decompose", "--q-order", str(q_order)])
    t = twining_truncation(q_order + 1)
    for u in (t, t + 24, OLD_MARGIN["genus"](q_order)):
        dec = genus_A_coefficients(q_order, elliptic_genus(u))
        assert report["massless_multiplicity"] == str(dec.atypical), u
        assert report["rows"] == \
            [[n, str(a)] for n, a in enumerate(dec.A)], u
    assert t <= OLD_MARGIN["genus"](q_order)


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


def test_emit_error_is_internal(monkeypatch, capsys):
    # a crash while the report is written is exit 4 too, not a mismatch
    from k3moonshine import cli

    def crash(report, fmt, stream=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "emit", crash)
    assert main(["ellgenus", "--q-order", "1"]) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and "RuntimeError: boom" in err


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


# sha256 of stdout beyond the goldens' smallest and default sizes, recorded
# with the whole-(q, y)-series builders that tests/route_oracle.py keeps
LARGE_SIZE_SHA256 = {
    "ellgenus --q-order 60":
        "99a14b071f73ef78f6108f0e64a273a1b063ec188acfeb8ba04a64eada16894b",
    "equivariant --class 7AB --q-order 40":
        "ac5a45171b1ce08e5aee70c58117648720ed318cce5e829d871a7175147c885d",
    "moonshine-verify --class 8A --q-order 40":
        "eaeab1c3df055ebeacee56fc4309416eea9c5caa86297494a46f8422d5ae14a8",
    "audit-integrality --t-order 12":
        "20c2759f48eb5c67f377b2a9d117b09904f6daf150663cfb6bb6011073364423",
}


@pytest.mark.parametrize("request_", sorted(LARGE_SIZE_SHA256))
def test_large_size_output_is_pinned(request_):
    status, out = run(request_.split(" "))
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        LARGE_SIZE_SHA256[request_]


def test_series_rows_write_exponents_as_format_rational():
    # the rows reduce q24/24 and y2/2 on integers; off the integral grid,
    # which the CLI's series never leave, they must still read as Fractions
    from fractions import Fraction
    from k3moonshine.chartab import format_rational
    from k3moonshine.cli import _series_rows
    from k3moonshine.series import TruncatedSeries
    keys = [(q24, y2) for q24 in range(-50, 50) for y2 in range(-5, 6)]
    rows = _series_rows(TruncatedSeries(dict.fromkeys(keys, 1), 50))
    assert rows == [[format_rational(Fraction(q24, 24)),
                     format_rational(Fraction(y2, 2)), "1"]
                    for q24, y2 in sorted(keys)]


def test_csv_format():
    status, out = run(["--format", "csv", "symt", "--class", "3A",
                       "--terms", "4"])
    assert status == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert lines[0] == "n,coefficient"
    assert lines[1] == "0,2"


def test_csv_of_a_report_without_a_table_writes_its_fields():
    # the verdict is not lost: each field is a key,value line
    status, out = run(["--format", "csv", "moonshine-verify", "--class", "3A",
                       "--q-order", "2"])
    assert status == 0
    assert out == ("title,twining genus versus McKay-Thompson prediction\n"
                   "class,3A\nagree,True\nfirst_mismatch,none\n")
    buf = io.StringIO()
    emit({"title": "t", "columns": ["a"], "rows": [[1]], "extra": 2}, "csv",
         buf)
    assert buf.getvalue() == "a\n1\n"     # a table keeps its bytes


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]],
                         ids=["text", "json"])
def test_verify_all_runs_each_check_once(fmt, monkeypatch):
    from k3moonshine import acceptance
    calls = []

    def check(n):
        def fn(**_):
            calls.append(n)
            return n != 2, f"check {n}"
        return fn

    monkeypatch.setattr(acceptance, "CHECKS",
                        tuple((f"{n} check", check(n)) for n in (1, 2, 3)))
    status, out = run([*fmt, "verify-all"])
    assert status == 1
    assert calls == [1, 2, 3]
    if fmt:
        assert [c["status"] for c in json.loads(out)["criteria"]] == \
            ["PASS", "FAIL", "PASS"]
    else:
        assert [ln.split("]")[0] for ln in out.splitlines()] == \
            ["[PASS", "[FAIL", "[PASS"]


def test_audited_classes_are_one_tuple(monkeypatch):
    # audit-integrality's rows and criterion 10's loop both follow
    # mckay.AUDITED_CLASSES and read their series through symmetric_traces
    from k3moonshine import acceptance, mckay
    monkeypatch.setattr(mckay, "AUDITED_CLASSES", ("15AB", "11A"))
    read = []
    series = mckay.symmetric_traces

    def recording(label, t_order):
        read.append((label, t_order))
        return series(label, t_order)

    monkeypatch.setattr(mckay, "symmetric_traces", recording)
    report = _report(["audit-integrality", "--t-order", "5"])
    assert [row[0] for row in report["rows"]] == ["15AB", "11A"]
    assert read == [("15AB", 5), ("11A", 5)]
    read.clear()
    assert acceptance.check_10_audit()[0]
    assert read == [("15AB", 6), ("11A", 6), ("2B", 20), ("4A-M24", 20)]


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


def test_cold_start_imports_no_dataclasses_inspect_or_json():
    import subprocess
    import sys
    import k3moonshine
    src = os.path.dirname(os.path.dirname(k3moonshine.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import k3moonshine.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_stdout_closed_early_exits_4_quietly():
    # the reader of a pipe stops after one line, as `| head -1` does; the
    # output (about 360 kB) outgrows the pipe's buffer, so the CLI's writes
    # fail: exit 4, no traceback and no "Exception ignored" at exit
    import subprocess
    import sys
    import k3moonshine
    from k3moonshine import cli
    src = os.path.dirname(os.path.dirname(k3moonshine.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "k3moonshine.cli", "ellgenus",
         "--q-order", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_INTERNAL == 4
    assert first == b"K3 elliptic genus (chi_{-y} convention)\n"
    assert err == b""


def test_cold_start_imports_no_argparse_gettext_or_locale():
    import subprocess
    import sys
    import k3moonshine
    src = os.path.dirname(os.path.dirname(k3moonshine.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import k3moonshine.cli; "
            "print(sorted({'argparse', 'gettext', 'locale'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# -- the command-line parser ------------------------------------------------

def _parse(argv):
    from k3moonshine.cli import build_parser
    return vars(build_parser().parse_args(argv))


def test_golden_requests_parse_to_their_namespaces():
    # every request of perfbench/goldens/cli.json, against the namespace
    # that argparse gave it (written out below); data_dir is None in all
    from k3moonshine import cli
    with open(Path(__file__).parent.parent / "perfbench" / "goldens"
              / "cli.json") as fh:
        requests = list(json.load(fh))
    assert sorted(requests) == sorted(GOLDEN_NAMESPACES)
    for request in requests:
        want = GOLDEN_NAMESPACES[request]
        handler = getattr(cli, HANDLERS[want["command"]])
        assert _parse(request.split()) == \
            {"data_dir": None, **want, "func": handler}, request


def test_spellings_argparse_accepted():
    equal = [
        (["ellgenus", "--q-order=3"], ["ellgenus", "--q-order", "3"]),
        (["ellgenus", "--q", "3"], ["ellgenus", "--q-order", "3"]),
        (["ellgenus", "--q-o=3"], ["ellgenus", "--q-order", "3"]),
        (["--f", "csv", "--d=fixtures", "ellgenus"],
         ["--format", "csv", "--data-dir", "fixtures", "ellgenus"]),
        (["symt", "--rat", "--cl", "2A", "--te=3"],
         ["symt", "--class", "2A", "--terms", "3", "--rational"]),
        (["n4-decompose", "--sector", "R", "--n", "2", "--q-order", "1"],
         ["n4-decompose", "--q-order", "1", "--n", "2", "--sector", "R"]),
        (["verify-all", "--t-order", "2", "--q-order", "9", "--t-order", "4"],
         ["verify-all", "--q-order", "9", "--t-order", "4"]),
    ]
    for spelled, plain in equal:
        assert _parse(spelled) == _parse(plain), spelled
    assert _parse(["ellgenus", "--q", "3"])["q_order"] == 3
    assert _parse(["--data-dir", "-", "ellgenus"])["data_dir"] == "-"
    assert _parse(["symt", "--class", "2A"])["rational"] is False


@pytest.mark.parametrize("argv,first", [
    (["-h"], "usage: k3moonshine [-h]"),
    (["--help", "ellgenus"], "usage: k3moonshine [-h]"),
    (["--he"], "usage: k3moonshine [-h]"),
    (["ellgenus", "-h"], "usage: k3moonshine ellgenus [-h] [--q-order"),
    (["equivariant", "--help"], "usage: k3moonshine equivariant [-h]"),
    (["lattice-check", "--bogus", "-h"], "usage: k3moonshine lattice-check"),
])
def test_help_exits_0(argv, first, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith(first) and err == ""


def test_help_lists_each_option_with_its_default(capsys):
    assert main(["n4-decompose", "-h"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["--n", "N", "default", "0"] in lines
    assert ["--q-order", "Q_ORDER", "default", "6"] in lines
    assert ["--sector", "{NS,R}", "default", "NS"] in lines
    assert main(["symt", "--help"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["--class", "{1A,2A,3A,4A,5A,6A,7AB,8A}", "required"] in lines
    assert ["--rational"] in lines


@pytest.mark.parametrize("argv,error", [
    (["ellgenus", "--bogus"], "argument --bogus: unrecognized"),
    (["ellgenus", "--q-order", "2", "3"], "argument 3: unrecognized"),
    (["-x", "ellgenus"], "argument -x: unrecognized"),
    (["equivariant"], "argument --class: required"),
    (["symt", "--terms", "2"], "argument --class: required"),
    (["ellgenus", "--format", "json"],
     "argument --format: a global option goes before the subcommand"),
    (["lattice-check", "--data-dir=fixtures"],
     "argument --data-dir=fixtures: a global option goes before"),
    ([], "argument COMMAND: required"),
    (["--format", "json"], "argument COMMAND: required"),
    (["--format", "xml", "ellgenus"], "argument --format: invalid choice"),
    (["n4-decompose", "--sector", "X"], "argument --sector: invalid choice"),
    (["ellgenus", "--q-order", "x"], "argument --q-order: invalid"),
    (["ellgenus", "--q-order"], "argument --q-order: expected one argument"),
    (["ellgenus", "--q-order", "-h"], "argument --q-order: expected one"),
    (["--data-dir", "--format", "json", "ellgenus"],
     "argument --data-dir: expected one argument"),
    (["symt", "--class", "2A", "--rational=yes"],
     "argument --rational: ignored explicit argument 'yes'"),
    (["ellgenus", "--q-order", "0", "-h"], "argument --q-order: must be"),
    # a negative number is a value, refused by the option's converter
    (["n4-decompose", "--n", "-4"], "argument --n: must be nonnegative"),
    (["n4-decompose", "--n=-2"], "argument --n: must be nonnegative"),
    (["ellgenus", "--q-order", "-.5"], "argument --q-order: invalid"),
    (["ellgenus", "--", "--q-order", "3"], "argument --: unrecognized"),
    (["--", "ellgenus"], "argument COMMAND: invalid choice: '--'"),
])
def test_usage_errors_exit_2(argv, error, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: k3moonshine")
    assert f"error: {error}" in err


# The handler of each subcommand, and the namespace argparse gave each
# golden request (vars(args) without data_dir, None throughout, and func).
HANDLERS = {
    "ellgenus": "cmd_ellgenus", "equivariant": "cmd_equivariant",
    "symt": "cmd_symt", "n4-decompose": "cmd_n4_decompose",
    "genus-decompose": "cmd_genus_decompose",
    "lattice-check": "cmd_lattice_check", "m23-table": "cmd_m23_table",
    "moonshine-verify": "cmd_moonshine_verify",
    "audit-integrality": "cmd_audit_integrality",
}
GOLDEN_NAMESPACES = {
    "--format csv ellgenus --q-order 1":
        dict(format="csv", command="ellgenus", q_order=1),
    "--format csv ellgenus --q-order 6":
        dict(format="csv", command="ellgenus", q_order=6),
    "--format csv lattice-check": dict(format="csv", command="lattice-check"),
    "--format csv m23-table --t-order 1":
        dict(format="csv", command="m23-table", t_order=1),
    "--format csv m23-table --t-order 21":
        dict(format="csv", command="m23-table", t_order=21),
    "--format json ellgenus --q-order 1":
        dict(format="json", command="ellgenus", q_order=1),
    "--format json ellgenus --q-order 6":
        dict(format="json", command="ellgenus", q_order=6),
    "--format json lattice-check":
        dict(format="json", command="lattice-check"),
    "--format json m23-table --t-order 1":
        dict(format="json", command="m23-table", t_order=1),
    "--format json m23-table --t-order 21":
        dict(format="json", command="m23-table", t_order=21),
    "audit-integrality --t-order 1":
        dict(format="text", command="audit-integrality", t_order=1),
    "audit-integrality --t-order 6":
        dict(format="text", command="audit-integrality", t_order=6),
    "ellgenus --q-order 1": dict(format="text", command="ellgenus", q_order=1),
    "ellgenus --q-order 6": dict(format="text", command="ellgenus", q_order=6),
    "equivariant --class 1A --q-order 1":
        dict(format="text", command="equivariant", q_order=1, cls="1A"),
    "equivariant --class 1A --q-order 4":
        dict(format="text", command="equivariant", q_order=4, cls="1A"),
    "equivariant --class 2A --q-order 1":
        dict(format="text", command="equivariant", q_order=1, cls="2A"),
    "equivariant --class 2A --q-order 4":
        dict(format="text", command="equivariant", q_order=4, cls="2A"),
    "equivariant --class 3A --q-order 1":
        dict(format="text", command="equivariant", q_order=1, cls="3A"),
    "equivariant --class 3A --q-order 4":
        dict(format="text", command="equivariant", q_order=4, cls="3A"),
    "equivariant --class 4A --q-order 1":
        dict(format="text", command="equivariant", q_order=1, cls="4A"),
    "equivariant --class 4A --q-order 4":
        dict(format="text", command="equivariant", q_order=4, cls="4A"),
    "equivariant --class 5A --q-order 1":
        dict(format="text", command="equivariant", q_order=1, cls="5A"),
    "equivariant --class 5A --q-order 4":
        dict(format="text", command="equivariant", q_order=4, cls="5A"),
    "equivariant --class 6A --q-order 1":
        dict(format="text", command="equivariant", q_order=1, cls="6A"),
    "equivariant --class 6A --q-order 4":
        dict(format="text", command="equivariant", q_order=4, cls="6A"),
    "equivariant --class 7AB --q-order 1":
        dict(format="text", command="equivariant", q_order=1, cls="7AB"),
    "equivariant --class 7AB --q-order 4":
        dict(format="text", command="equivariant", q_order=4, cls="7AB"),
    "equivariant --class 8A --q-order 1":
        dict(format="text", command="equivariant", q_order=1, cls="8A"),
    "equivariant --class 8A --q-order 4":
        dict(format="text", command="equivariant", q_order=4, cls="8A"),
    "genus-decompose --q-order 1":
        dict(format="text", command="genus-decompose", q_order=1),
    "genus-decompose --q-order 5":
        dict(format="text", command="genus-decompose", q_order=5),
    "lattice-check": dict(format="text", command="lattice-check"),
    "m23-table --t-order 1":
        dict(format="text", command="m23-table", t_order=1),
    "m23-table --t-order 21":
        dict(format="text", command="m23-table", t_order=21),
    "moonshine-verify --class 1A --q-order 1":
        dict(format="text", command="moonshine-verify", q_order=1, cls="1A"),
    "moonshine-verify --class 1A --q-order 5":
        dict(format="text", command="moonshine-verify", q_order=5, cls="1A"),
    "moonshine-verify --class 2A --q-order 1":
        dict(format="text", command="moonshine-verify", q_order=1, cls="2A"),
    "moonshine-verify --class 2A --q-order 5":
        dict(format="text", command="moonshine-verify", q_order=5, cls="2A"),
    "moonshine-verify --class 3A --q-order 1":
        dict(format="text", command="moonshine-verify", q_order=1, cls="3A"),
    "moonshine-verify --class 3A --q-order 5":
        dict(format="text", command="moonshine-verify", q_order=5, cls="3A"),
    "moonshine-verify --class 4A --q-order 1":
        dict(format="text", command="moonshine-verify", q_order=1, cls="4A"),
    "moonshine-verify --class 4A --q-order 5":
        dict(format="text", command="moonshine-verify", q_order=5, cls="4A"),
    "moonshine-verify --class 5A --q-order 1":
        dict(format="text", command="moonshine-verify", q_order=1, cls="5A"),
    "moonshine-verify --class 5A --q-order 5":
        dict(format="text", command="moonshine-verify", q_order=5, cls="5A"),
    "moonshine-verify --class 6A --q-order 1":
        dict(format="text", command="moonshine-verify", q_order=1, cls="6A"),
    "moonshine-verify --class 6A --q-order 5":
        dict(format="text", command="moonshine-verify", q_order=5, cls="6A"),
    "moonshine-verify --class 7AB --q-order 1":
        dict(format="text", command="moonshine-verify", q_order=1, cls="7AB"),
    "moonshine-verify --class 7AB --q-order 5":
        dict(format="text", command="moonshine-verify", q_order=5, cls="7AB"),
    "moonshine-verify --class 8A --q-order 1":
        dict(format="text", command="moonshine-verify", q_order=1, cls="8A"),
    "moonshine-verify --class 8A --q-order 5":
        dict(format="text", command="moonshine-verify", q_order=5, cls="8A"),
    "n4-decompose --n 0 --sector NS --q-order 1":
        dict(format="text", command="n4-decompose",
             n=0, q_order=1, sector="NS"),
    "n4-decompose --n 0 --sector NS --q-order 6":
        dict(format="text", command="n4-decompose",
             n=0, q_order=6, sector="NS"),
    "n4-decompose --n 0 --sector R --q-order 1":
        dict(format="text", command="n4-decompose",
             n=0, q_order=1, sector="R"),
    "n4-decompose --n 0 --sector R --q-order 6":
        dict(format="text", command="n4-decompose",
             n=0, q_order=6, sector="R"),
    "n4-decompose --n 1 --sector NS --q-order 1":
        dict(format="text", command="n4-decompose",
             n=1, q_order=1, sector="NS"),
    "n4-decompose --n 1 --sector NS --q-order 6":
        dict(format="text", command="n4-decompose",
             n=1, q_order=6, sector="NS"),
    "n4-decompose --n 1 --sector R --q-order 1":
        dict(format="text", command="n4-decompose",
             n=1, q_order=1, sector="R"),
    "n4-decompose --n 1 --sector R --q-order 6":
        dict(format="text", command="n4-decompose",
             n=1, q_order=6, sector="R"),
    "n4-decompose --n 10 --sector R --q-order 1":
        dict(format="text", command="n4-decompose",
             n=10, q_order=1, sector="R"),
    "n4-decompose --n 10 --sector R --q-order 6":
        dict(format="text", command="n4-decompose",
             n=10, q_order=6, sector="R"),
    "n4-decompose --n 2 --sector NS --q-order 1":
        dict(format="text", command="n4-decompose",
             n=2, q_order=1, sector="NS"),
    "n4-decompose --n 2 --sector NS --q-order 6":
        dict(format="text", command="n4-decompose",
             n=2, q_order=6, sector="NS"),
    "n4-decompose --n 2 --sector R --q-order 1":
        dict(format="text", command="n4-decompose",
             n=2, q_order=1, sector="R"),
    "n4-decompose --n 2 --sector R --q-order 6":
        dict(format="text", command="n4-decompose",
             n=2, q_order=6, sector="R"),
    "n4-decompose --n 3 --sector NS --q-order 1":
        dict(format="text", command="n4-decompose",
             n=3, q_order=1, sector="NS"),
    "n4-decompose --n 3 --sector NS --q-order 6":
        dict(format="text", command="n4-decompose",
             n=3, q_order=6, sector="NS"),
    "n4-decompose --n 3 --sector R --q-order 1":
        dict(format="text", command="n4-decompose",
             n=3, q_order=1, sector="R"),
    "n4-decompose --n 3 --sector R --q-order 6":
        dict(format="text", command="n4-decompose",
             n=3, q_order=6, sector="R"),
    "n4-decompose --n 4 --sector NS --q-order 1":
        dict(format="text", command="n4-decompose",
             n=4, q_order=1, sector="NS"),
    "n4-decompose --n 4 --sector NS --q-order 6":
        dict(format="text", command="n4-decompose",
             n=4, q_order=6, sector="NS"),
    "n4-decompose --n 4 --sector R --q-order 1":
        dict(format="text", command="n4-decompose",
             n=4, q_order=1, sector="R"),
    "n4-decompose --n 4 --sector R --q-order 6":
        dict(format="text", command="n4-decompose",
             n=4, q_order=6, sector="R"),
    "n4-decompose --n 5 --sector NS --q-order 6":
        dict(format="text", command="n4-decompose",
             n=5, q_order=6, sector="NS"),
    "n4-decompose --n 5 --sector R --q-order 1":
        dict(format="text", command="n4-decompose",
             n=5, q_order=1, sector="R"),
    "n4-decompose --n 5 --sector R --q-order 6":
        dict(format="text", command="n4-decompose",
             n=5, q_order=6, sector="R"),
    "n4-decompose --n 6 --sector NS --q-order 6":
        dict(format="text", command="n4-decompose",
             n=6, q_order=6, sector="NS"),
    "n4-decompose --n 6 --sector R --q-order 1":
        dict(format="text", command="n4-decompose",
             n=6, q_order=1, sector="R"),
    "n4-decompose --n 6 --sector R --q-order 6":
        dict(format="text", command="n4-decompose",
             n=6, q_order=6, sector="R"),
    "n4-decompose --n 7 --sector NS --q-order 6":
        dict(format="text", command="n4-decompose",
             n=7, q_order=6, sector="NS"),
    "n4-decompose --n 7 --sector R --q-order 1":
        dict(format="text", command="n4-decompose",
             n=7, q_order=1, sector="R"),
    "n4-decompose --n 7 --sector R --q-order 6":
        dict(format="text", command="n4-decompose",
             n=7, q_order=6, sector="R"),
    "n4-decompose --n 8 --sector NS --q-order 6":
        dict(format="text", command="n4-decompose",
             n=8, q_order=6, sector="NS"),
    "n4-decompose --n 8 --sector R --q-order 1":
        dict(format="text", command="n4-decompose",
             n=8, q_order=1, sector="R"),
    "n4-decompose --n 8 --sector R --q-order 6":
        dict(format="text", command="n4-decompose",
             n=8, q_order=6, sector="R"),
    "n4-decompose --n 9 --sector NS --q-order 6":
        dict(format="text", command="n4-decompose",
             n=9, q_order=6, sector="NS"),
    "n4-decompose --n 9 --sector R --q-order 1":
        dict(format="text", command="n4-decompose",
             n=9, q_order=1, sector="R"),
    "n4-decompose --n 9 --sector R --q-order 6":
        dict(format="text", command="n4-decompose",
             n=9, q_order=6, sector="R"),
    "symt --class 1A --terms 1":
        dict(format="text", command="symt", terms=1, cls="1A", rational=False),
    "symt --class 1A --terms 1 --rational":
        dict(format="text", command="symt", terms=1, cls="1A", rational=True),
    "symt --class 1A --terms 8":
        dict(format="text", command="symt", terms=8, cls="1A", rational=False),
    "symt --class 1A --terms 8 --rational":
        dict(format="text", command="symt", terms=8, cls="1A", rational=True),
    "symt --class 2A --terms 1":
        dict(format="text", command="symt", terms=1, cls="2A", rational=False),
    "symt --class 2A --terms 1 --rational":
        dict(format="text", command="symt", terms=1, cls="2A", rational=True),
    "symt --class 2A --terms 8":
        dict(format="text", command="symt", terms=8, cls="2A", rational=False),
    "symt --class 2A --terms 8 --rational":
        dict(format="text", command="symt", terms=8, cls="2A", rational=True),
    "symt --class 3A --terms 1":
        dict(format="text", command="symt", terms=1, cls="3A", rational=False),
    "symt --class 3A --terms 1 --rational":
        dict(format="text", command="symt", terms=1, cls="3A", rational=True),
    "symt --class 3A --terms 8":
        dict(format="text", command="symt", terms=8, cls="3A", rational=False),
    "symt --class 3A --terms 8 --rational":
        dict(format="text", command="symt", terms=8, cls="3A", rational=True),
    "symt --class 4A --terms 1":
        dict(format="text", command="symt", terms=1, cls="4A", rational=False),
    "symt --class 4A --terms 1 --rational":
        dict(format="text", command="symt", terms=1, cls="4A", rational=True),
    "symt --class 4A --terms 8":
        dict(format="text", command="symt", terms=8, cls="4A", rational=False),
    "symt --class 4A --terms 8 --rational":
        dict(format="text", command="symt", terms=8, cls="4A", rational=True),
    "symt --class 5A --terms 1":
        dict(format="text", command="symt", terms=1, cls="5A", rational=False),
    "symt --class 5A --terms 1 --rational":
        dict(format="text", command="symt", terms=1, cls="5A", rational=True),
    "symt --class 5A --terms 8":
        dict(format="text", command="symt", terms=8, cls="5A", rational=False),
    "symt --class 5A --terms 8 --rational":
        dict(format="text", command="symt", terms=8, cls="5A", rational=True),
    "symt --class 6A --terms 1":
        dict(format="text", command="symt", terms=1, cls="6A", rational=False),
    "symt --class 6A --terms 1 --rational":
        dict(format="text", command="symt", terms=1, cls="6A", rational=True),
    "symt --class 6A --terms 8":
        dict(format="text", command="symt", terms=8, cls="6A", rational=False),
    "symt --class 6A --terms 8 --rational":
        dict(format="text", command="symt", terms=8, cls="6A", rational=True),
    "symt --class 7AB --terms 1":
        dict(format="text", command="symt",
             terms=1, cls="7AB", rational=False),
    "symt --class 7AB --terms 1 --rational":
        dict(format="text", command="symt", terms=1, cls="7AB", rational=True),
    "symt --class 7AB --terms 8":
        dict(format="text", command="symt",
             terms=8, cls="7AB", rational=False),
    "symt --class 7AB --terms 8 --rational":
        dict(format="text", command="symt", terms=8, cls="7AB", rational=True),
    "symt --class 8A --terms 1":
        dict(format="text", command="symt", terms=1, cls="8A", rational=False),
    "symt --class 8A --terms 1 --rational":
        dict(format="text", command="symt", terms=1, cls="8A", rational=True),
    "symt --class 8A --terms 8":
        dict(format="text", command="symt", terms=8, cls="8A", rational=False),
    "symt --class 8A --terms 8 --rational":
        dict(format="text", command="symt", terms=8, cls="8A", rational=True),
}
