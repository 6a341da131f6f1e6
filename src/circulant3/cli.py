"""Command-line front end: evaluation, analysis, table regression, certificates.

Subcommands:

* ``eval``: evaluate the form and its power contraction at a point;
* ``analyze``: PSD and SOS thresholds at one (m, u, c), with report;
* ``table``: recompute shipped reference tables and grade each row;
* ``breakpoints``: exact kink abscissas for an order, with verification;
* ``certify``: write the three-piece certificate bundle for a point.

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
    the order cap, the worker count and the output.
    """

    max_m: int = 14
    jobs: int = 1
    format: str = "pretty"
    out: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


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
    for key in ("seed", "jobs", "format", "out", "tol_d"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _scalar_repr(v: Scalar) -> object:
    if isinstance(v, float):
        return v
    if isinstance(v, int):
        return v
    return str(v)


def _check_order(m: int, cfg: RunConfig) -> int:
    require_even_order(m)
    if m > cfg.max_m:
        raise ValueError(f"m = {m} exceeds configured max_m = {cfg.max_m}")
    return m


def _parse_point(args: argparse.Namespace, cfg: RunConfig) -> tuple:
    return _check_order(args.m, cfg), tables.parse_scalar(args.u), tables.parse_scalar(args.c)


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        m = args.m
        d = tables.parse_scalar(args.d)
        u = tables.parse_scalar(args.u)
        c = tables.parse_scalar(args.c)
        x = tuple(tables.parse_scalar(p) for p in args.x.split(","))
        if len(x) != 3:
            raise ValueError("--x must be three comma-separated numbers")
        t = make_tensor(m, d, u, c)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    value = t.eval_form(x)
    power = t.apply_power(x)
    if cfg.format == "json":
        _emit(
            json.dumps(
                {
                    "config": cfg.to_json_dict(),
                    "f": _scalar_repr(value),
                    "power": [_scalar_repr(p) for p in power],
                },
                sort_keys=True,
                indent=2,
            ),
            cfg,
        )
    else:
        _emit(f"f(x) = {value}\nA x^(m-1) = ({power[0]}, {power[1]}, {power[2]})", cfg)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        m, u, c = _parse_point(args, cfg)
        report = boundary.analyze(m, u, c, cfg, with_certificate=not args.no_certificate)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if cfg.format == "json":
        doc = {"config": cfg.to_json_dict(), "report": report.to_json_dict()}
        _emit(json.dumps(doc, sort_keys=True, indent=2), cfg)
    else:
        status = "CONFIRMED" if report.confirmed else "UNCONFIRMED"
        lines = [
            f"m={report.m} u={args.u} c={args.c}",
            f"N = {report.n!r}  [{report.n_tag}, guarded by {report.n_guard}]",
            f"M = {report.m_val!r}  [{report.m_method}]",
            f"gap = {report.gap!r}",
            f"status: {status}",
        ]
        for err in report.errors:
            lines.append(f"error: {err}")
        _emit("\n".join(lines), cfg)
    if report.failed:
        return EXIT_SOLVER
    return EXIT_OK if report.confirmed else EXIT_UNCONFIRMED


def cmd_table(args: argparse.Namespace, cfg: RunConfig) -> int:
    wanted = list(range(1, 10)) if args.all else [args.table]
    if not args.all and not 1 <= args.table <= 9:
        print("error: --table must be in 1..9", file=sys.stderr)
        return EXIT_USAGE
    try:
        results = tables.run_tables(wanted, jobs=cfg.jobs, cfg=cfg)
    except FileNotFoundError as exc:
        print(f"error: fixture not found: {exc}", file=sys.stderr)
        return EXIT_FIXTURE
    csv_text = tables.results_to_csv(results)
    if cfg.format == "csv":
        _emit(csv_text, cfg)
    elif cfg.format == "json":
        doc = {"config": cfg.to_json_dict(), "rows": [tables.row_fields(r) for r in results]}
        _emit(json.dumps(doc, sort_keys=True, indent=2), cfg)
    else:
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
        n_pass = sum(1 for r in results if r.passed)
        lines.append(f"{n_pass}/{len(results)} rows pass")
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
            lines.append(f"csv written to {cfg.out}")
            sys.stdout.write("\n".join(lines) + "\n")
        else:
            _emit("\n".join(lines), cfg)
        return EXIT_OK if n_pass == len(results) else 1
    return EXIT_OK if all(r.passed for r in results) else 1


def cmd_breakpoints(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        m = _check_order(args.m, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    bps = [boundary.breakpoint_u0(m, cfg), boundary.breakpoint_v0(m, cfg)]
    if cfg.format == "json":
        doc = {
            "config": cfg.to_json_dict(),
            "breakpoints": [bp.to_json_dict() for bp in bps],
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2), cfg)
    else:
        lines = []
        for bp in bps:
            status = "verified" if bp.verified else "NOT verified"
            lines.append(
                f"{bp.kind}(m={m}) = {bp.value} = {float(bp.value)!r} "
                f"[{status}, smallest eigenvalue {bp.lambda_residual:.3e}]"
            )
        _emit("\n".join(lines), cfg)
    return EXIT_OK if all(bp.verified for bp in bps) else EXIT_UNCONFIRMED


def cmd_certify(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        m, u, c = _parse_point(args, cfg)
        bundle = sos.certify_pns_free(m, u, c, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    doc = {"config": cfg.to_json_dict(), "bundle": bundle.to_json_dict()}
    _emit(json.dumps(doc, sort_keys=True, indent=2), cfg)
    return EXIT_OK if bundle.status == "CONFIRMED" else EXIT_UNCONFIRMED


def _add_global_flags(parser: argparse.ArgumentParser, default: object) -> None:
    parser.add_argument("--config", default=default,
                        help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=default,
                        help="RNG seed for solver multistarts")
    parser.add_argument("--jobs", type=int, default=default,
                        help="worker processes for table rows (at most the CPU count)")
    parser.add_argument("--format", choices=FORMATS, default=default,
                        help="output format")
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

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the form at a point", parents=[common])
    p_eval.add_argument("--m", type=int, required=True)
    p_eval.add_argument("--d", required=True)
    p_eval.add_argument("--u", required=True)
    p_eval.add_argument("--c", required=True)
    p_eval.add_argument("--x", required=True, help="comma-separated x1,x2,x3")
    p_eval.set_defaults(func=cmd_eval)

    p_an = sub.add_parser("analyze", help="PSD and SOS thresholds at one point", parents=[common])
    p_an.add_argument("--m", type=int, required=True)
    p_an.add_argument("--u", required=True)
    p_an.add_argument("--c", required=True)
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

    p_bp = sub.add_parser("breakpoints", help="exact kink abscissas for an order", parents=[common])
    p_bp.add_argument("--m", type=int, required=True)
    p_bp.set_defaults(func=cmd_breakpoints)

    p_cert = sub.add_parser("certify", help="write a certificate bundle", parents=[common])
    p_cert.add_argument("--m", type=int, required=True)
    p_cert.add_argument("--u", required=True)
    p_cert.add_argument("--c", required=True)
    p_cert.set_defaults(func=cmd_certify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
