#!/usr/bin/env python3
"""Benchmark of circulant3: end-to-end and per-layer metrics of its workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, the workloads BENCHMARK.json names, or
psd-sweep, which is run by hand in alternating pairs of two commits (see
README.md): its pure-Python kernels follow the host's speed too closely
for runs compared across an hour.

Run from the root of a checkout. Each round of a workload runs in a
fresh interpreter (runner.py) on the checkout's src/, and whole rounds
repeat for about S seconds. The outputs of every round are graded here
with the benchmark's own mathematics (oracle.py), never against a copy
of earlier output. The last line of standard output is one JSON object
with correct, the attempted and failed operations of one round (every
round must give the same counts) and the metrics: the end-to-end
metrics with --trace 0; with --trace 1 the per-layer metrics of one
extra, traced round, with its wall time against the untraced median
and the cost of its spans timed on a no-op. Full results and spans go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("table", "sos-decide")
BY_HAND = ("psd-sweep",)
SETUP_SAMPLES = 9
RUN_LIMIT_S = 160  # the rounds of a run end within this, or the run fails


class RoundFailed(RuntimeError):
    """A round's interpreter exited with an error or ran out of time."""


def run_round(job: dict, tag: str, timeout: float = RUN_LIMIT_S) -> dict:
    """Run one round in a fresh interpreter and return its raw result."""
    job_path, res_path = OUT / f"{tag}.job.json", OUT / f"{tag}.result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "runner.py"), str(job_path), str(res_path)],
            capture_output=True, text=True, timeout=max(timeout, 1.0), env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{tag}: no result within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(res_path.read_text(encoding="utf-8"))
    job_path.unlink()
    res_path.unlink()
    return result


# -- grading -----------------------------------------------------------------


def published_rows() -> Dict[Tuple[str, str, str, str], Tuple[float, float]]:
    with open(HERE / "published.csv", encoding="utf-8") as fh:
        return {(r["table"], r["m"], r["c"], r["u"]): (float(r["expected_M"]), float(r["expected_N"]))
                for r in csv.DictReader(fh)}


def grade_table(result: dict, published) -> Tuple[int, int, List[str]]:
    """(rows attempted, rows failed, problems) against the published values."""
    problems = [] if result["exit"] == 0 else [f"circulant3 table exited {result['exit']}"]
    bad, seen = set(), set()
    for r in csv.DictReader(result["csv"].splitlines()):
        key = (r["table"], r["m"], r["c"], r["u"])
        if key not in published:
            problems.append(f"row {key} is not in the published table")
            continue
        seen.add(key)
        pub_m, pub_n = published[key]
        found = oracle.check_table_row(pub_m, pub_n, float(r["M_computed"]), float(r["N_computed"]))
        if found:
            bad.add(key)
            problems += [f"row {key}: {p}" for p in found]
    for key in sorted(set(published) - seen):
        bad.add(key)
        problems.append(f"row {key} missing from the output")
    return len(published), len(bad), problems


def grade_psd(q: dict, a: dict) -> List[List[str]]:
    """Problems of the is_psd and the n_value answer at one point, checked
    against the harness's own evaluation of the form."""
    if "error" in a:
        return [[a["error"]], [a["error"]]]
    m, c = q["m"], q["c"]
    d, u, n = Fraction(q["d"]), Fraction(q["u"]), q["n"]
    psd, nval = [], []
    scale = max(1.0, abs(float(d)) + abs(float(u)) * 2**m + abs(c) * 3 ** (m - 1))
    x = a["x"]
    if abs(sum(abs(v) ** m for v in x) - 1.0) > 1e-9:
        psd.append(f"minimiser {x} is not a unit vector")
    f_x = float(oracle.exact_value_at(m, d, u, c, x))
    if abs(a["lam"] - f_x) > 1e-9 * scale:
        psd.append(f"lambda {a['lam']!r} but f(x) = {f_x!r}")
    if a["lam"] > float(d) - n + 1e-9 * scale:
        psd.append(f"lambda {a['lam']!r} above the harness minimum {float(d) - n!r}")
    if a["psd"] != q["psd"]:
        psd.append(f"is_psd said {a['psd']} at d = N (1 {'+' if q['psd'] else '-'} delta)")
    exact = oracle.closed_form_n(m, u, c)
    if exact is not None:
        if Fraction(a["n"]) != exact:
            nval.append(f"n_value {a['n']} but the exact threshold is {exact}")
    elif abs(float(a["n"]) - n) > 1e-9 * max(1.0, abs(n)):
        nval.append(f"n_value {a['n']} but the harness finds {n!r}")
    return [psd, nval]


def grade_sos(q: dict, a: dict) -> List[List[str]]:
    """A "no" needs a point with f < 0; a "yes" needs a certificate that re-verifies."""
    m, c = q["m"], q["c"]
    d, u = Fraction(q["d"]), Fraction(q["u"])
    if a["verdict"] == "no":
        if oracle.find_witness(m, d, u, c) is None:
            return [["'not SOS' but the harness finds no point with f < 0"]]
        return [[]]
    if a["verdict"] == "yes":
        ok, err, eig = oracle.verify_certificate(m, d, u, c, a["monos"], a["G"])
        if not ok:
            return [[f"'SOS' with a certificate off by {err:.3g} (relative), min eig {eig:.3g}"]]
        return [[]]
    return [[f"undecided: {a.get('error', '')}"]]


def grade_round(workload: str, queries, result: dict, cache: Dict[tuple, List[str]]):
    """(attempted, failed, unexpected problems, fault problems) for one round.

    Grading is deterministic per query and answer, so repeated rounds
    reuse the verdict of an identical (query, answer) pair.
    """
    if workload == "table":
        n, failed, problems = grade_table(result, queries)
        return n, failed, problems, []
    grade = grade_psd if workload == "psd-sweep" else grade_sos
    attempted = failed = 0
    unexpected, faults = [], []
    for i, (q, a) in enumerate(zip(queries, result["answers"])):
        key = (i, json.dumps(a, sort_keys=True))
        if key not in cache:
            cache[key] = grade(q, a)
        for problems in cache[key]:
            attempted += 1
            if problems:
                failed += 1
                text = f"{q['m']},{q['d']},{q['u']},{q['c']}: " + "; ".join(problems)
                (faults if q.get("fault") else unexpected).append(text)
    return attempted, failed, unexpected, faults


# -- metrics -----------------------------------------------------------------


def end_to_end(rounds: List[dict], setup: List[float]) -> Dict[str, dict]:
    ms = [t for r in rounds for t in r["query_ms"]]
    p50, p80 = np.percentile(ms, [50, 80])
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
        "query_p50_ms": {"value": float(p50), "unit": "ms"},
        "query_p80_ms": {"value": float(p80), "unit": "ms"},
        "peak_rss_mb": {"value": max(r["rss_mb"] for r in rounds), "unit": "MB"},
    }


# the per-layer metrics, (function, counter): "calls" and the counters
# are counts, busy_s and self_s are seconds of the traced round; see
# README.md for the end-to-end metric each should move
PER_LAYER = (
    [("tables.compute_row", k) for k in ("calls", "busy_s", "self_s")]
    + [("boundary.n_value", k) for k in ("calls", "busy_s", "self_s", "eigen_branch")]
    + [("eigen.lambda_min", k) for k in ("calls", "busy_s", "self_s", "multistart_wins")]
    + [(f, k) for f in ("kernels.minimize_batch", "kernels.scan_two_equal",
                        "sdp.check_certificate", "sos.build_gram_problem")
       for k in ("calls", "busy_s", "self_s")]
    + [("sdp.solve", k) for k in ("calls", "busy_s", "self_s", "ipm_iters", "optimal")]
    + [("sdp.solve", f"n{side}.busy_s") for side in tracer.GRAM_SIDES]
    + [("sos.is_sos", k) for k in ("calls", "busy_s", "self_s", "yes", "no", "undecided",
                                    "wide_theta")]
    + [("sos.m_value", k) for k in ("calls", "busy_s", "self_s")]
)


def per_layer(traced: dict, untraced_wall: float) -> Dict[str, dict]:
    table = tracer.layer_table(traced["spans"])
    out = {}
    for fn, key in PER_LAYER:
        value = table.get(fn, {}).get(key, 0)
        if key.endswith("_s"):
            out[f"{fn}.{key}"] = {"value": float(value), "unit": "s"}
        else:
            out[f"{fn}.{key}"] = {"value": int(value), "unit": "count"}
    m_value = table.get("sos.m_value", {})
    out["sos.m_value.is_sos_per_call"] = {
        "value": m_value.get("is_sos_calls", 0) / m_value["calls"] if m_value else 0.0,
        "unit": "ratio"}
    spans = len(traced["spans"])
    out["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
    out["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced["wall_s"] - untraced_wall, "unit": "s"}
    out["trace.spans"] = {"value": spans, "unit": "count"}
    out["trace.span_cost_s"] = {"value": spans * traced["span_cost_s"], "unit": "s"}
    out["trace.root_busy_s"] = {"value": table["trace"]["root_busy_s"], "unit": "s"}
    return out


# -- entry point ---------------------------------------------------------------


def make_queries(workload: str, seed: int):
    if workload == "table":
        return published_rows()
    if workload == "psd-sweep":
        return workloads.psd_queries(seed)
    return workloads.sos_queries(seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + BY_HAND)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the round
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "circulant3" / "__init__.py").is_file():
        print(f"error: no circulant3 sources under {src}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    queries = make_queries(args.workload, args.seed)
    job = {"workload": args.workload, "src": str(src), "trace": False,
           "queries": queries if isinstance(queries, list) else []}

    rounds: List[dict] = []
    setup: List[float] = []
    setup_job = {**job, "workload": "setup", "queries": []}
    start = time.perf_counter()
    longest = 0.0
    reserve = 1.5 if args.trace else 0.5  # a traced run keeps room for its traced round

    def elapsed() -> float:
        return time.perf_counter() - start

    def left() -> float:
        return RUN_LIMIT_S - elapsed()

    try:
        # whole rounds only: the next one starts while the run, with half
        # the longest round so far, still ends within its seconds, so a run
        # lasts about its seconds on a fast and on a slow host
        while not rounds or elapsed() + reserve * longest <= args.seconds:
            began = elapsed()
            rounds.append(run_round(job, f"{stem}-r{len(rounds)}", left()))
            longest = max(longest, elapsed() - began)
            # a set-up-only interpreter after each round spreads the set-up
            # samples over the run, across the host's drifts in speed
            setup += [rounds[-1]["setup_s"], run_round(setup_job, f"{stem}-setup", left())["setup_s"]]
        while len(setup) < SETUP_SAMPLES:
            setup.append(run_round(setup_job, f"{stem}-setup", left())["setup_s"])
        traced = None
        if args.trace:
            traced = run_round({**job, "trace": True}, f"{stem}-traced", left())
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # grading is deterministic, so every round must give the same counts;
    # the summary reports one round's, so that they do not grow with the
    # number of rounds a run fits into its seconds
    cache: Dict[tuple, List[str]] = {}
    unexpected: List[str] = []
    faults: List[str] = []
    counts = []
    for r in rounds + ([traced] if traced else []):
        n, f, bad, known = grade_round(args.workload, queries, r, cache)
        counts.append((n, f))
        unexpected += bad
        faults += known
    attempted, failed = counts[0]
    if len(set(counts)) > 1:
        unexpected.append(f"(attempted, failed) differ between rounds: {counts}")

    untraced_wall = statistics.median(r["wall_s"] for r in rounds)
    metrics = per_layer(traced, untraced_wall) if traced else end_to_end(rounds, setup)
    summary = {"correct": not unexpected, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": rounds[0]["env"], "rounds": len(rounds),
              "round_wall_s": [r["wall_s"] for r in rounds], "round_counts": counts,
              "setup_s": setup,
              "query_ms": [r["query_ms"] for r in rounds],
              "unexpected": sorted(set(unexpected)), "faults": sorted(set(faults)), **summary}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if traced:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in traced["spans"]:
                fh.write(json.dumps(span) + "\n")
    for line in sorted(set(unexpected))[:20]:
        print(f"unexpected: {line}", file=sys.stderr)
    print(json.dumps({"env": rounds[0]["env"]}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
