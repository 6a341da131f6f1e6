"""Reference-table fixture: loading, per-row recomputation, and checking.

The package ships a CSV of published threshold values for the circulant
family, one row per (table, m, u, c) query with the expected SOS
threshold M and PSD threshold N.  This module recomputes both numbers
for any selection of rows and grades them with a per-row tolerance:

* default: the looser of absolute 1e-4 and relative 1e-5, per column;
* exact: when the expected N is a closed-form rational reproduced by
  the linear branch to 1e-9 as a double, the N column is held to 1e-9;
* flagged: rows whose two published columns disagree with each other
  beyond the default rule (published solver noise) additionally admit
  an absolute 5e-3 band on both columns.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from importlib import resources
from typing import Iterable, List, Optional, Sequence

from circulant3 import boundary
from circulant3.eigen import DEFAULT_CONFIG, SolverConfig
from circulant3.tensor import Scalar

FIXTURE_NAME = "tables.csv"
EXACT_TOL = 1e-9
ABS_TOL = 1e-4
REL_TOL = 1e-5
FLAGGED_ABS_TOL = 5e-3
# rows the published source itself marks as noisy (m = 12, c = 1 slice)
FLAGGED_ROWS = {(9, "-58366/683"), (9, "-60")}


def fixture_text() -> str:
    """Raw fixture bytes as text; FileNotFoundError if not shipped."""
    ref = resources.files("circulant3").joinpath("data").joinpath(FIXTURE_NAME)
    with ref.open("r", encoding="utf-8") as fh:
        return fh.read()


def parse_scalar(s: str) -> Scalar:
    """Exact scalar from a CLI/fixture string: int, fraction, or decimal."""
    s = s.strip()
    try:
        return int(s)
    except ValueError:
        pass
    try:
        frac = Fraction(s)  # accepts p/q, decimals, exponents, all exactly
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {s!r}") from exc
    if frac.denominator == 1:
        return int(frac)
    return frac


def _default_tol(expected: float) -> float:
    return max(ABS_TOL, REL_TOL * abs(expected))


@dataclass(frozen=True)
class FixtureRow:
    """One published row plus its derived checking policy."""

    table: int
    m: int
    u: str
    c: int
    expected_m: str
    expected_n: str
    tol_m: float
    tol_n: float
    exact_n: bool
    flagged: bool

    @property
    def u_value(self) -> Scalar:
        return parse_scalar(self.u)

    @property
    def expected_m_value(self) -> float:
        return float(self.expected_m)

    @property
    def expected_n_value(self) -> float:
        return float(self.expected_n)


def _build_row(table: int, m: int, u: str, c: int, exp_m: str, exp_n: str) -> FixtureRow:
    me, ne = float(exp_m), float(exp_n)
    self_inconsistent = abs(me - ne) > max(_default_tol(me), _default_tol(ne))
    flagged = (table, u) in FLAGGED_ROWS or self_inconsistent
    tol_m = _default_tol(me)
    tol_n = _default_tol(ne)
    if flagged:
        tol_m = max(tol_m, FLAGGED_ABS_TOL)
        tol_n = max(tol_n, FLAGGED_ABS_TOL)
    closed = boundary.closed_form_n(m, parse_scalar(u), c)
    exact_n = closed is not None and abs(float(closed.value) - ne) <= EXACT_TOL and not flagged
    if exact_n:
        tol_n = EXACT_TOL
    return FixtureRow(
        table=table,
        m=m,
        u=u,
        c=c,
        expected_m=exp_m,
        expected_n=exp_n,
        tol_m=tol_m,
        tol_n=tol_n,
        exact_n=exact_n,
        flagged=flagged,
    )


def load_fixture() -> List[FixtureRow]:
    """All fixture rows in file order, with checking policy attached."""
    lines = fixture_text().strip().splitlines()
    header = lines[0].split(",")
    if header != ["table", "m", "u", "c", "expected_M", "expected_N"]:
        raise ValueError(f"unexpected fixture header: {header}")
    rows = []
    for line in lines[1:]:
        table, m, u, c, exp_m, exp_n = line.split(",")
        rows.append(_build_row(int(table), int(m), u, int(c), exp_m, exp_n))
    return rows


@dataclass(frozen=True)
class RowResult:
    """Recomputation outcome for one fixture row.

    ``n_guard`` names the evidence behind the computed N, as in
    ``boundary.BoundaryReport``.
    """

    row: FixtureRow
    m_computed: float
    n_computed: float
    m_ok: bool
    n_ok: bool
    error: Optional[str] = None
    n_guard: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.m_ok and self.n_ok and self.error is None


def compute_row(row: FixtureRow, cfg: SolverConfig = DEFAULT_CONFIG) -> RowResult:
    """Recompute both thresholds for a row and grade them."""
    report = boundary._report(row.m, row.u_value, row.c, cfg)
    m_ok = math.isfinite(report.m_val) and abs(report.m_val - row.expected_m_value) <= row.tol_m
    n_ok = math.isfinite(report.n) and abs(report.n - row.expected_n_value) <= row.tol_n
    return RowResult(
        row, report.m_val, report.n, m_ok, n_ok, "; ".join(report.errors) or None, report.n_guard
    )


# thread-count variables of the BLAS builds numpy ships with, read when
# the library loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Pin BLAS to one thread in the processes started inside the block."""
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                del os.environ[k]
            else:
                os.environ[k] = v


def run_tables(
    tables: Sequence[int], jobs: int = 1, cfg: SolverConfig = DEFAULT_CONFIG
) -> List[RowResult]:
    """Recompute every row of the selected tables, in fixture order.

    With jobs > 1 (capped at the CPU count and the number of rows) the
    rows are solved in that many worker processes, each started fresh
    with BLAS pinned to one thread; results come back in fixture order
    whatever the completion order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    wanted = set(tables)
    rows = [r for r in load_fixture() if r.table in wanted]
    jobs = min(jobs, os.cpu_count() or 1, len(rows))
    if jobs <= 1:
        return [compute_row(r, cfg) for r in rows]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    row_job = partial(compute_row, cfg=cfg)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        with _one_blas_thread():  # every worker starts while the rows are submitted
            results = pool.map(row_job, rows)
        return list(results)


CSV_HEADER = "table,m,c,u,M_computed,N_computed,M_expected,N_expected,pass"


def row_fields(res: RowResult) -> dict:
    """A result's nine output fields, keyed by the CSV header's column names."""
    r = res.row
    values = (r.table, r.m, r.c, r.u, res.m_computed, res.n_computed,
              r.expected_m, r.expected_n, res.passed)
    return dict(zip(CSV_HEADER.split(","), values))


def _csv_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # str of a float is its repr: shortest round-trip digits


def results_to_csv(results: Iterable[RowResult]) -> str:
    """Fixed-schema CSV, byte-deterministic for identical inputs."""
    lines = [CSV_HEADER]
    lines += [",".join(map(_csv_cell, row_fields(res).values())) for res in results]
    return "\n".join(lines) + "\n"
