"""Command-line front end: evaluation, analysis, table regression, certificates.

Subcommands:

* ``eval``: evaluate the form and its power contraction at a point;
* ``analyze``: PSD and SOS thresholds at one (m, u, c), with report;
* ``table``: recompute shipped reference tables and grade each row;
* ``breakpoints``: exact kink abscissas for an order, with verification;
* ``certify``: write the three-piece certificate bundle for a point.

With ``--format json`` (``certify`` always) a command writes one JSON
object, keys sorted, indent 2: the resolved run options under
``config`` beside the command's own keys, ``f`` and ``power`` (eval),
``report`` (analyze), ``rows`` (table), ``breakpoints`` or ``bundle``.
``table --format csv`` writes the bare CSV; pretty ``table`` with
``--out`` writes the CSV to the file and the report to stdout.

Exit codes: 0 success/confirmed; 2 usage or validation error;
3 unconfirmed result; 4 solver failure; 5 missing fixture.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from dataclasses import dataclass
from typing import Optional, Sequence

from circulant3 import boundary, sos, tables
from circulant3.eigen import SolverConfig
from circulant3.tensor import Scalar, make_tensor, require_even_order

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNCONFIRMED = 3
EXIT_SOLVER = 4
EXIT_FIXTURE = 5

FORMATS = ("pretty", "json", "csv")


@dataclass(frozen=True)
class RunConfig(SolverConfig):
    """Resolved run options: file values overridden by explicit flags.

    The solver settings and their checks are SolverConfig's, and a
    RunConfig is passed on as the solver config itself; the run adds
    the order cap and the output.
    """

    max_m: int = 14
    format: str = "pretty"
    out: Optional[str] = None

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _coerce(name: str, raw: str, target_type: object) -> object:
    try:
        if target_type in (float, int):
            return target_type(raw)
        return raw
    except ValueError as exc:
        raise ValueError(f"config key {name!r}: {exc}") from exc


def load_config_file(path: str) -> dict:
    """Flat key = value config; unknown keys are an error, not a warning.

    Each value is read as the type of the RunConfig field it sets.
    """
    known = typing.get_type_hints(RunConfig)
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, raw.strip(), known[key])
    if "format" in values and values["format"] not in FORMATS:
        raise ValueError(f"{path}: format must be one of {FORMATS}")
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in ("seed", "format", "out", "tol_d"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


def _document(cfg: RunConfig, **payload: object) -> str:
    """The JSON document of a command: its config under "config", beside the payload."""
    return json.dumps({"config": cfg.to_json_dict(), **payload}, sort_keys=True, indent=2)


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(text: str, cfg: RunConfig, code: int) -> int:
    """Write text to cfg.out, or to stdout without one, and return code;
    a usage error when cfg.out cannot be written."""
    text = text if text.endswith("\n") else text + "\n"
    if not cfg.out:
        sys.stdout.write(text)
        return code
    try:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _usage(f"cannot write {cfg.out}: {exc.strerror or exc}")
    return code


def _scalar_repr(v: Scalar) -> object:
    return v if isinstance(v, (int, float)) else str(v)


def _check_order(m: int, cfg: RunConfig) -> int:
    require_even_order(m)
    if m > cfg.max_m:
        raise ValueError(f"m = {m} exceeds configured max_m = {cfg.max_m}")
    return m


def _parse_point(args: argparse.Namespace, cfg: RunConfig) -> tuple:
    return _check_order(args.m, cfg), tables.parse_scalar(args.u), tables.parse_scalar(args.c)


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        d, u, c = (tables.parse_scalar(s) for s in (args.d, args.u, args.c))
        x = tuple(tables.parse_scalar(p) for p in args.x.split(","))
        if len(x) != 3:
            raise ValueError("--x must be three comma-separated numbers")
        t = make_tensor(args.m, d, u, c)
    except ValueError as exc:
        return _usage(str(exc))
    value = t.eval_form(x)
    power = t.apply_power(x)
    try:
        if cfg.format == "json":
            text = _document(cfg, f=_scalar_repr(value), power=[_scalar_repr(p) for p in power])
        else:
            text = f"f(x) = {value}\nA x^(m-1) = ({power[0]}, {power[1]}, {power[2]})"
    except ValueError as exc:
        # an exact integer with more digits than Python converts to text
        # (4,300 by default, sys.set_int_max_str_digits)
        return _usage(f"the exact value cannot be written as text: {exc}")
    return _emit(text, cfg, EXIT_OK)


def cmd_analyze(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        m, u, c = _parse_point(args, cfg)
        report = boundary.analyze(m, u, c, cfg, with_certificate=not args.no_certificate)
    except ValueError as exc:
        return _usage(str(exc))
    if cfg.format == "json":
        text = _document(cfg, report=report.to_json_dict())
    else:
        lines = [
            f"m={report.m} u={args.u} c={args.c}",
            f"N = {report.n!r}  [{report.n_tag}, guarded by {report.n_guard}]",
            f"M = {report.m_val!r}  [{report.m_method}]",
            f"gap = {report.gap!r}",
            f"status: {'CONFIRMED' if report.confirmed else 'UNCONFIRMED'}",
        ]
        text = "\n".join(lines + [f"error: {err}" for err in report.errors])
    if report.failed:
        return _emit(text, cfg, EXIT_SOLVER)
    return _emit(text, cfg, EXIT_OK if report.confirmed else EXIT_UNCONFIRMED)


def cmd_table(args: argparse.Namespace, cfg: RunConfig) -> int:
    if not args.all and not 1 <= args.table <= 9:
        return _usage("--table must be in 1..9")
    try:
        results = tables.run_tables(list(range(1, 10)) if args.all else [args.table], cfg)
    except FileNotFoundError as exc:
        print(f"error: fixture not found: {exc}", file=sys.stderr)
        return EXIT_FIXTURE
    n_pass = sum(1 for r in results if r.passed)
    code = EXIT_OK if n_pass == len(results) else 1
    csv_text = tables.results_to_csv(results)
    if cfg.format == "csv":
        return _emit(csv_text, cfg, code)
    if cfg.format == "json":
        return _emit(_document(cfg, rows=[tables.row_fields(r) for r in results]), cfg, code)
    lines = []
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        lines.append(
            f"[{mark}] table {r.row.table} m={r.row.m} c={r.row.c:+d} "
            f"u={r.row.u}: M={r.m_computed!r} (expected {r.row.expected_m}), "
            f"N={r.n_computed!r} (expected {r.row.expected_n})"
        )
        if r.error:
            lines.append(f"       error: {r.error}")
    lines.append(f"{n_pass}/{len(results)} rows pass")
    # pretty with --out: the CSV goes to the file, the report to stdout
    if cfg.out:
        if _emit(csv_text, cfg, EXIT_OK) != EXIT_OK:
            return EXIT_USAGE
        lines.append(f"csv written to {cfg.out}")
    print("\n".join(lines))
    return code


def cmd_breakpoints(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        m = _check_order(args.m, cfg)
    except ValueError as exc:
        return _usage(str(exc))
    bps = [boundary.breakpoint_u0(m, cfg), boundary.breakpoint_v0(m, cfg)]
    if cfg.format == "json":
        text = _document(cfg, breakpoints=[bp.to_json_dict() for bp in bps])
    else:
        text = "\n".join(
            f"{bp.kind}(m={m}) = {bp.value} = {float(bp.value)!r} "
            f"[{'verified' if bp.verified else 'NOT verified'}, "
            f"smallest eigenvalue {bp.lambda_residual:.3e}]"
            for bp in bps
        )
    return _emit(text, cfg, EXIT_OK if all(bp.verified for bp in bps) else EXIT_UNCONFIRMED)


def cmd_certify(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        m, u, c = _parse_point(args, cfg)
        bundle = sos.certify_pns_free(m, u, c, cfg)
    except ValueError as exc:
        return _usage(str(exc))
    except RuntimeError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    code = EXIT_OK if bundle.status == "CONFIRMED" else EXIT_UNCONFIRMED
    return _emit(_document(cfg, bundle=bundle.to_json_dict()), cfg, code)


def _add_global_flags(parser: argparse.ArgumentParser, default: object) -> None:
    parser.add_argument("--config", default=default,
                        help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=default,
                        help="RNG seed for solver multistarts")
    parser.add_argument("--format", choices=FORMATS, default=default,
                        help="output format (csv: table only)")
    parser.add_argument("--out", default=default,
                        help="write output to this path instead of stdout")
    parser.add_argument("--tol-d", dest="tol_d", type=float, default=default,
                        help="bisection tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circulant3",
        description="PSD/SOS thresholds for even-order three-dimensional "
        "strongly symmetric circulant tensors",
    )
    _add_global_flags(parser, default=None)
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed before it
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, default=argparse.SUPPRESS)

    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--m", type=int, required=True)
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--u", required=True)
    point.add_argument("--c", required=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the form at a point",
                            parents=[common, order, point])
    p_eval.add_argument("--d", required=True)
    p_eval.add_argument("--x", required=True, help="comma-separated x1,x2,x3")
    p_eval.set_defaults(func=cmd_eval)

    p_an = sub.add_parser("analyze", help="PSD and SOS thresholds at one point",
                          parents=[common, order, point])
    p_an.add_argument(
        "--no-certificate", action="store_true",
        help="skip the certificate bundle (thresholds only)",
    )
    p_an.set_defaults(func=cmd_analyze)

    p_tab = sub.add_parser("table", help="recompute shipped reference tables", parents=[common])
    group = p_tab.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", type=int, help="table number 1..9")
    group.add_argument("--all", action="store_true", help="all tables")
    p_tab.set_defaults(func=cmd_table)

    p_bp = sub.add_parser("breakpoints", help="exact kink abscissas for an order",
                          parents=[common, order])
    p_bp.set_defaults(func=cmd_breakpoints)

    p_cert = sub.add_parser("certify", help="write a certificate bundle",
                            parents=[common, order, point])
    p_cert.set_defaults(func=cmd_certify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (OSError, ValueError) as exc:
        return _usage(str(exc))
    if cfg.format == "csv" and args.command != "table":
        return _usage(f"--format csv is for table only, not {args.command}")
    return args.func(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
