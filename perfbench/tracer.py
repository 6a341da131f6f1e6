"""Span recording around the package's public functions, and the layer table.

The benchmark does not rely on instrumentation inside circulant3: it
wraps the functions listed in TRACED from its own files, in every
circulant3 module that holds a reference to them, so calls between
modules go through the wrapper. Each call leaves one span (id, parent,
name, start, end, outcome and a few attributes read off the arguments
and the result). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# module -> public functions wrapped; the layers are
# cli -> tables -> boundary -> eigen -> kernels, and sos -> sdp
TRACED = {
    "cli": ("main",),
    "tables": ("run_tables", "compute_row"),
    "boundary": ("n_value", "unit_scale_reference"),
    "eigen": ("lambda_min", "is_psd"),
    "kernels": ("minimize_batch", "scan_two_equal"),
    "sos": ("m_value", "is_sos", "build_gram_problem"),
    "sdp": ("solve", "check_certificate"),
}

# Gram matrix sides of the orders the workloads use: m = 6 ... 14
GRAM_SIDES = (10, 15, 21, 28, 36)


def _lambda_min_attrs(args, kwargs, result) -> dict:
    tie = 1e-9 * max(1.0, abs(result.lam_structured), abs(result.lam_multistart))
    return {"multistart_win": bool(result.lam_multistart < result.lam_structured - tie)}


def _solve_attrs(args, kwargs, result) -> dict:
    return {"side": int(args[0].dim), "iters": int(result.iterations), "status": result.status,
            "precision": float(result.precision)}


def _is_sos_attrs(args, kwargs, result) -> dict:
    tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-7)
    return {"verdict": "yes" if result[0] else "no", "tol": float(tol)}


ATTRS: Dict[str, Callable] = {
    "eigen.lambda_min": _lambda_min_attrs,
    "boundary.n_value": lambda a, k, r: {"tag": r.tag},
    "sdp.solve": _solve_attrs,
    "sos.is_sos": _is_sos_attrs,
}


class Tracer:
    """Wraps the traced functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._stack: List[int] = []  # ids of the open spans; every workload is serial

    def _wrap(self, name: str, fn: Callable) -> Callable:
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = {"id": next(self._ids), "parent": stack[-1] if stack else None,
                    "name": name, "outcome": "ok"}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["outcome"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs_of is not None:
                span.update(attrs_of(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to a traced function inside the package."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "circulant3" or key.startswith("circulant3.")]
        for short, names in TRACED.items():
            owner = sys.modules[f"circulant3.{short}"]
            for fname in names:
                orig = getattr(owner, fname)
                wrapped = self._wrap(f"{short}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)


def call_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds that the wrapper adds to one call, timed on a no-op function.

    The best of a few repeats, as timeit takes it; spans times this is
    the tracing cost of a round, which the difference of two round wall
    times cannot resolve on a host whose speed drifts.
    """
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    best = []
    for fn in (noop, wrapped):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    return max(0.0, (best[1] - best[0]) / calls)


def _self_time(span: dict, children: List[dict]) -> float:
    """Duration minus the part of it covered by the union of child spans."""
    covered, edge = 0.0, span["start"]
    for ch in sorted(children, key=lambda s: s["start"]):
        lo, hi = max(ch["start"], edge), min(ch["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            edge = hi
    return (span["end"] - span["start"]) - covered


def layer_table(spans: List[dict]) -> Dict[str, dict]:
    """Per function: calls, busy_s, self_s, plus the counters of TRACED layers."""
    kids: Dict[Optional[int], List[dict]] = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    table: Dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = table[s["name"]]
        row["calls"] += 1
        row["busy_s"] += s["end"] - s["start"]
        row["self_s"] += _self_time(s, kids[s["id"]])
        name = s["name"]
        if name == "boundary.n_value" and s.get("tag", "").startswith("eigen"):
            row["eigen_branch"] += 1
        elif name == "eigen.lambda_min" and s.get("multistart_win"):
            row["multistart_wins"] += 1
        elif name == "sdp.solve":
            row["ipm_iters"] += s["iters"]
            row["optimal"] += s["status"] == "optimal"
            row[f"n{s['side']}.busy_s"] += s["end"] - s["start"]
        elif name == "sos.is_sos":
            verdict = s.get("verdict", "undecided" if s["outcome"] == "SosUndecided" else "error")
            row[verdict] += 1
            solves = [ch for ch in kids[s["id"]] if ch["name"] == "sdp.solve"]
            tol = s.get("tol", 1e-7)
            if any(max(tol, 10.0 * ch["precision"]) > 1e-4 for ch in solves):
                row["wide_theta"] += 1
        elif name == "sos.m_value":
            row["is_sos_calls"] += sum(ch["name"] == "sos.is_sos" for ch in kids[s["id"]])
    roots = [s for s in spans if s["parent"] is None]
    table["trace"]["root_busy_s"] = sum(s["end"] - s["start"] for s in roots)
    return {k: dict(v) for k, v in table.items()}
