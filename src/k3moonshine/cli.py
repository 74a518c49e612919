"""Command-line front end.

Deterministic, exact output: every rational is serialized as "a/b" (or a
bare integer), never as a float.  Exit codes: 0 success, 1 verification
mismatch, 2 usage error, 3 data error, 4 internal error (the traceback goes
to stderr, and nothing to stdout but verify-all's criterion lines or, with
``--format json``, its one JSON object).  A stdout closed by its reader
before the output is written, as by ``| head``, exits 4 with nothing on
stderr.

``--format csv`` writes a table as its column and row lines, and a report
without one as a key,value line per field.

The command line is read in one pass over two tables, with no argparse:
``GLOBAL_OPTIONS`` before the subcommand, and ``COMMANDS``, each
subcommand's handler and options after it.

``n4-decompose`` and ``genus-decompose`` print N=4 multiplicities in
closed form (Table 3's row N, minus the genus's from H); criterion 7 of
``verify-all`` checks a decomposition of the genus against H.
``verify-all`` runs the criteria once: a text line as each ends, or one
JSON object after all, and then the first exception is re-raised.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from .chartab import SYMPLECTIC_CLASSES, TableFormatError, format_rational

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def emit(report: dict, fmt: str, stream=None) -> None:
    """Serialize a report with stable field ordering."""
    stream = stream or sys.stdout
    if fmt == "json":
        import json  # here, so that it adds nothing to the CLI's start-up
        json.dump(report, stream, indent=1, sort_keys=False)
        stream.write("\n")
        return
    title = report.get("title", "")
    columns = report.get("columns", [])
    rows = report.get("rows", [])
    if fmt == "csv":
        # a table is its columns and rows; a report without one writes
        # each of its fields as a key,value line
        for row in (columns, *rows) if columns else report.items():
            stream.write(",".join(str(c) for c in row) + "\n")
        return
    if title:
        stream.write(title + "\n")
    for key, value in report.items():
        if key in ("title", "columns", "rows"):
            continue
        stream.write(f"{key}: {value}\n")
    if columns:  # every report with rows names its columns
        widths = [max([len(str(c))] + [len(str(r[i])) for r in rows])
                  for i, c in enumerate(columns)]
        for row in (columns, *rows):
            stream.write("  ".join(str(c).rjust(w)
                                   for c, w in zip(row, widths)) + "\n")


def _over(n: int, d: int) -> str:
    """n/d in lowest terms, as ``format_rational`` writes it (d > 0)."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _series_rows(s):
    return [[_over(q24, 24), _over(y2, 2), format_rational(c)]
            for (q24, y2), c in sorted(s.terms.items())]


def _rational_function_text(r):
    def poly_text(p):
        parts = []
        for k, c in enumerate(p):
            if not c:
                continue
            mon = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
            c = format_rational(c)
            parts.append(f"{c}*{mon}" if k else c)
        return " + ".join(parts) if parts else "0"

    return f"({poly_text(r.num)}) / ({poly_text(r.den)})"


def cmd_ellgenus(args):
    from .genus import elliptic_genus
    s = elliptic_genus(args.q_order * 24)
    return {"title": "K3 elliptic genus (chi_{-y} convention)",
            "q_order": args.q_order,
            "columns": ["q", "y", "coefficient"],
            "rows": _series_rows(s)}, EXIT_OK


def cmd_equivariant(args):
    from .genus import equivariant_elliptic_genus
    s = equivariant_elliptic_genus(args.cls, args.q_order * 24)
    return {"title": f"equivariant elliptic genus, class {args.cls}",
            "q_order": args.q_order,
            "columns": ["q", "y", "coefficient"],
            "rows": _series_rows(s)}, EXIT_OK


def cmd_symt(args):
    from .genus import chi_symt_series, rational_form
    series = chi_symt_series(args.cls, args.terms)
    report = {"title": f"chi(g; X, S_t T), class {args.cls}",
              "columns": ["n", "coefficient"],
              "rows": [[n, format_rational(c)] for n, c in enumerate(series)]}
    if args.rational:
        report["rational_form"] = _rational_function_text(rational_form(args.cls))
    return report, EXIT_OK


def cmd_n4_decompose(args):
    # the multiplicities are those of either sector: --sector names it only
    from .n4char import _atypical_coefficient, _typical_row
    row = _typical_row(args.n, args.q_order)
    return {"title": f"N=4 decomposition of ch_V{args.n} ({args.sector})",
            "atypical": format_rational(_atypical_coefficient(args.n)),
            "columns": [f"h=1/4+{k}" for k in range(args.q_order)],
            "rows": [[format_rational(v) for v in row]]}, EXIT_OK


def cmd_genus_decompose(args):
    from .n4char import _genus_multiplicities
    massless, *a = (-m for m in _genus_multiplicities(args.q_order + 1))
    return {"title": "elliptic genus into N=4 characters",
            "massless_multiplicity": format_rational(massless),
            "columns": ["n", "A_n"],
            "rows": [[n, format_rational(x)] for n, x in enumerate(a)]}, EXIT_OK


def cmd_lattice_check(args):
    from .tables import fixture_lattice_report
    from .replattice import compare_with_published
    rep = fixture_lattice_report()
    rows = [[f"N_{i+1}/N", str(q)] for i, q in enumerate(rep.Ni_over_N)]
    four, triples, failure = compare_with_published(rep)
    report = {"title": "order-lattice suite",
              "K_equals_N": str(rep.K_equals_N),
              "Kprime_equals_N": str(rep.Kp_equals_N),
              "index_N_over_Kdoubleprime": str(rep.Kdp_index_in_N),
              "M_over_N": str(rep.M_over_N),
              "sufficient_quadruples": str(sorted(four.items())),
              "triples_reaching_N": str(triples),
              "columns": ["quotient", "invariant factors"],
              "rows": rows}
    return report, EXIT_MISMATCH if failure else EXIT_OK


def cmd_m23_table(args):
    from .tables import load_m23
    from .replattice import first_nonintegral, m23_table2
    _, cols = m23_table2(load_m23(), args.t_order)
    rows = [[n] + [format_rational(cols[j][n]) for j in range(len(cols))]
            for n in range(args.t_order)]
    nonint = any(first_nonintegral(col) is not None for col in cols)
    return {"title": "decomposition of -chi(X, S_t T) into M23 irreducibles",
            "columns": ["n"] + [f"chi{j+1}" for j in range(len(cols))],
            "rows": rows}, (EXIT_MISMATCH if nonint else EXIT_OK)


def cmd_moonshine_verify(args):
    from .genus import verify_moonshine_class
    from .mckay import f_series
    t = args.q_order * 24
    f = f_series(args.cls, t)
    report = verify_moonshine_class(args.cls, f, t)
    return {"title": "twining genus versus McKay-Thompson prediction",
            "class": args.cls,
            "agree": str(report.ok),
            "first_mismatch": "none" if report.ok
            else format_rational(Fraction(report.first_mismatch_q24, 24)),
            }, (EXIT_OK if report.ok else EXIT_MISMATCH)


def cmd_audit_integrality(args):
    from .mckay import AUDITED_CLASSES, symmetric_traces
    from .replattice import first_nonintegral
    rows = []
    for label in AUDITED_CLASSES:
        cs = symmetric_traces(label, args.t_order)
        hit = first_nonintegral(cs)
        rows.append([label,
                     "none" if hit is None else f"t^{hit[0]}",
                     "" if hit is None else format_rational(hit[1]),
                     " ".join(format_rational(c) for c in cs)])
    return {"title": "integrality audit of twining-derived symmetric-power traces",
            "columns": ["class", "first non-integral", "value", "series"],
            "rows": rows}, EXIT_OK


def cmd_verify_all(args):
    from .acceptance import run_criteria
    results = []
    for r in run_criteria(args.q_order, args.t_order):
        results.append(r)
        if args.format != "json":
            sys.stdout.write(f"[{r.status}] criterion {r.criterion} "
                             f"({r.seconds:.1f}s)"
                             f"{'' if r.ok else ' -- ' + r.detail}\n")
    ok = all(r.ok for r in results)
    if args.format == "json":
        # emitted before a criterion's exception is re-raised (exit 4), so
        # stdout is one JSON document either way
        emit({"criteria": [{"criterion": r.criterion, "status": r.status,
                            "ok": r.ok, "detail": r.detail,
                            "seconds": round(r.seconds, 3)} for r in results],
              "ok": ok}, "json")
    for r in results:
        if r.error is not None:
            raise r.error   # a crash must not read as a mismatch
    return None, (EXIT_OK if ok else EXIT_MISMATCH)


class UsageError(Exception):
    """A command line that the parser refuses (exit 2)."""


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise UsageError(f"must be positive, got {value}")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise UsageError(f"must be nonnegative, got {value}")
    return value


# The command line: each subcommand's handler, by name, and its options as a
# table flag -> (dest, converter, default).  A converter is a function of the
# value's text, a tuple of the values allowed, or None for a switch that
# takes no value; a default of _REQUIRED makes the flag required.  The
# global options come before the subcommand.
PROG = "k3moonshine"
_REQUIRED = object()
GLOBAL_OPTIONS = {
    "--data-dir": ("data_dir", str, None),
    "--format": ("format", ("json", "csv", "text"), "text"),
}
_CLASS = ("cls", SYMPLECTIC_CLASSES, _REQUIRED)
COMMANDS = {
    "ellgenus": ("cmd_ellgenus", {"--q-order": ("q_order", _positive, 6)}),
    "equivariant": ("cmd_equivariant", {
        "--q-order": ("q_order", _positive, 4), "--class": _CLASS}),
    "symt": ("cmd_symt", {
        "--terms": ("terms", _positive, 8), "--class": _CLASS,
        "--rational": ("rational", None, False)}),
    "n4-decompose": ("cmd_n4_decompose", {
        "--n": ("n", _nonnegative, 0), "--q-order": ("q_order", _positive, 6),
        "--sector": ("sector", ("NS", "R"), "NS")}),
    "genus-decompose": ("cmd_genus_decompose", {
        "--q-order": ("q_order", _positive, 5)}),
    "lattice-check": ("cmd_lattice_check", {}),
    "m23-table": ("cmd_m23_table", {"--t-order": ("t_order", _positive, 21)}),
    "moonshine-verify": ("cmd_moonshine_verify", {
        "--q-order": ("q_order", _positive, 5), "--class": _CLASS}),
    "audit-integrality": ("cmd_audit_integrality", {
        "--t-order": ("t_order", _positive, 6)}),
    "verify-all": ("cmd_verify_all", {
        "--q-order": ("q_order", _positive, 6),
        "--t-order": ("t_order", _positive, 21)}),
}
DESCRIPTION = ("Exact computations for K3 elliptic genera, N=4 characters,\n"
               "and Mathieu-group character lattices.  --data-dir names the\n"
               "character-table fixture directory (also via K3MOONSHINE_DATA)."
               "\n\ncommands (COMMAND -h lists the options of one):\n  "
               + "\n  ".join(COMMANDS))


def _word(flag: str, dest: str, convert) -> str:
    """The flag and its value as the usage line writes them."""
    if convert is None:
        return flag
    if isinstance(convert, tuple):
        return f"{flag} {{{','.join(convert)}}}"
    return f"{flag} {dest.upper()}"


def _usage(prog: str, options: dict) -> str:
    words = ["usage:", prog, "[-h]"]
    for flag, (dest, convert, default) in options.items():
        word = _word(flag, dest, convert)
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words + (["COMMAND ..."] if prog == PROG else []))


def _help(prog: str, options: dict) -> str:
    lines = [_usage(prog, options), ""]
    if prog == PROG:
        lines += [DESCRIPTION, ""]
    for flag, (dest, convert, default) in options.items():
        note = ("required" if default is _REQUIRED else ""
                if convert is None or default is None else f"default {default}")
        lines.append(f"  {_word(flag, dest, convert):<26} {note}".rstrip())
    return "\n".join(lines) + "\n"


def _is_flag(token: str) -> bool:
    """A token is a flag if it starts with '-', unless it is '-' alone, a
    negative number (-4, -1.5, -.5) or holds a space."""
    if len(token) < 2 or token[0] != "-" or " " in token:
        return False
    whole, dot, fraction = token[1:].partition(".")
    return not (whole.isdecimal() and not dot or fraction.isdecimal()
                and (not whole or whole.isdecimal()))


def _match(flag: str, options: dict):
    """The option ``flag`` names, exactly or as the unique prefix of a long
    flag; "--help" for a request for help, None for no option."""
    if flag in options or flag == "-h":
        return "--help" if flag == "-h" else flag
    if not flag.startswith("--"):
        return None
    hits = [name for name in (*options, "--help") if name.startswith(flag)]
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {flag} could match "
                         + ", ".join(hits))
    return hits[0] if hits else None


def _read(argv: list, i: int, prog: str, options: dict, args: dict,
          unknown: list) -> int:
    """Read the flags of ``options`` from ``argv[i:]`` into ``args``, up to
    the first token that is not a flag, and return its index.  A flag of no
    option goes to ``unknown``; -h prints the help and exits 0.  '--'
    ends the flags."""
    while i < len(argv) and _is_flag(argv[i]) and argv[i] != "--":
        flag, eq, text = argv[i].partition("=")
        i += 1
        name = _match(flag, options)
        if name is None:
            unknown.append(argv[i - 1])
            continue
        dest, convert, _ = options.get(name, (None, None, None))
        if eq and convert is None:
            raise UsageError(f"argument {name}: ignored explicit argument "
                             f"{text!r}")
        if name == "--help":
            sys.stdout.write(_help(prog, options))
            raise SystemExit(EXIT_OK)
        if convert is None:
            args[dest] = True
            continue
        if not eq:
            if i == len(argv) or _is_flag(argv[i]):
                raise UsageError(f"argument {name}: expected one argument")
            text = argv[i]
            i += 1
        if isinstance(convert, tuple):
            if text not in convert:
                raise UsageError(f"argument {name}: invalid choice: {text!r} "
                                 f"(choose from {', '.join(convert)})")
            args[dest] = text
            continue
        try:
            args[dest] = convert(text)
        except UsageError as exc:
            raise UsageError(f"argument {name}: {exc}") from None
        except ValueError:
            raise UsageError(f"argument {name}: invalid {convert.__name__} "
                             f"value: {text!r}") from None
    return i


class Parser:
    """The command line read in one pass over the tables above: the global
    options, the subcommand, then its options in any order.  Flags take
    their value as the next token or after '=', may be shortened to a
    unique prefix, and the last of a repeated flag wins."""

    def parse_args(self, argv=None) -> SimpleNamespace:
        """The namespace of ``argv``'s options, ``func`` the handler of its
        subcommand; a usage error prints to stderr and exits 2, -h prints
        the help and exits 0."""
        argv = sys.argv[1:] if argv is None else list(argv)
        args = {dest: default for dest, _, default in GLOBAL_OPTIONS.values()}
        prog, options, unknown = PROG, GLOBAL_OPTIONS, []
        try:
            i = _read(argv, 0, prog, options, args, unknown)
            if i == len(argv):
                raise UsageError("argument COMMAND: required")
            command = argv[i]
            if command not in COMMANDS:
                raise UsageError(f"argument COMMAND: invalid choice: "
                                 f"{command!r} (choose from "
                                 f"{', '.join(COMMANDS)})")
            handler, options = COMMANDS[command]
            prog = f"{PROG} {command}"
            # the handler is looked up by name when parsing, so that a
            # replaced one is the one that runs
            args.update(command=command, func=globals()[handler])
            args.update((dest, default)
                        for dest, _, default in options.values())
            i += 1
            while i < len(argv):
                i = _read(argv, i, prog, options, args, unknown)
                # a word that is no flag; from '--' on, every token is one
                end = len(argv) if argv[i:i + 1] == ["--"] else i + 1
                unknown += argv[i:end]
                i = end
            for flag, (dest, _, _) in options.items():
                if args[dest] is _REQUIRED:
                    raise UsageError(f"argument {flag}: required")
            if unknown:
                hint = ("a global option goes before the subcommand"
                        if unknown[0].partition("=")[0] in GLOBAL_OPTIONS
                        else "unrecognized")
                raise UsageError(f"argument {unknown[0]}: {hint}")
        except UsageError as exc:
            sys.stderr.write(f"{_usage(prog, options)}\n{prog}: error: "
                             f"{exc}\n")
            raise SystemExit(EXIT_USAGE) from None
        return SimpleNamespace(**args)


def build_parser() -> Parser:
    return Parser()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    saved_data_dir = os.environ.get("K3MOONSHINE_DATA")
    if args.data_dir:
        os.environ["K3MOONSHINE_DATA"] = args.data_dir
    try:
        report, status = args.func(args)
        if report is not None:
            emit(report, args.format)
        # written out here, so that a closed stdout raises in this try
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): an internal error,
        # reported by the exit code alone
        _discard_stdout()
        return EXIT_INTERNAL
    except (FileNotFoundError, TableFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        # a crash must not read as a verification mismatch; traceback is
        # imported here so that it adds nothing to the CLI's start-up
        import traceback
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        # --data-dir applies to this command only
        if saved_data_dir is None:
            os.environ.pop("K3MOONSHINE_DATA", None)
        else:
            os.environ["K3MOONSHINE_DATA"] = saved_data_dir
    return status


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the
    interpreter's flush at exit drops what is still buffered instead of
    printing "Exception ignored"."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return                              # not a file: nothing at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
