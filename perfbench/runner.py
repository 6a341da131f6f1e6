"""One round of one workload, run in a fresh interpreter.

    python3 perfbench/runner.py JOB.json RESULT.json

The job names the checkout's source directory, the workload, its
queries and whether to trace. The round imports circulant3 from that
directory (timed as set-up), calls the program's public entry points
on the queries, times each query, and writes the raw outputs with the
timings, the peak resident set size, the environment and, when traced,
the spans. It checks nothing: run.py grades the outputs.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
from fractions import Fraction


def blas_threads():
    """Default thread count of the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(circulant3, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": circulant3.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_table(job, mods, times):
    cli, tables = mods["cli"], mods["tables"]
    inner = tables.compute_row

    def timed_row(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            times.append(1e3 * (time.perf_counter() - t0))

    tables.compute_row = timed_row
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["table", "--all", "--format", "csv"])
    return {"exit": code, "csv": out.getvalue()}


def run_psd(job, mods, times):
    boundary, eigen, make_tensor = mods["boundary"], mods["eigen"], mods["tensor"].make_tensor
    answers = []
    for q in job["queries"]:
        m, u, c, d = q["m"], Fraction(q["u"]), q["c"], Fraction(q["d"])
        try:
            t0 = time.perf_counter()
            psd, res = eigen.is_psd(make_tensor(m, d, u, c))
            t1 = time.perf_counter()
            nv = boundary.n_value(m, u, c)
            times += [1e3 * (t1 - t0), 1e3 * (time.perf_counter() - t1)]
        except eigen.SolverFailure as exc:
            answers.append({"error": str(exc)})
            continue
        answers.append({"psd": bool(psd), "lam": res.lam, "x": list(res.x),
                        "n": str(nv.value) if isinstance(nv.value, (int, Fraction)) else nv.value,
                        "tag": nv.tag})
    return {"answers": answers}


def run_sos(job, mods, times):
    sos, make_tensor = mods["sos"], mods["tensor"].make_tensor
    answers = []
    for q in job["queries"]:
        t = make_tensor(q["m"], Fraction(q["d"]), Fraction(q["u"]), q["c"])
        t0 = time.perf_counter()
        try:
            ok, cert = sos.is_sos(t)
        except sos.SosUndecided as exc:
            times.append(1e3 * (time.perf_counter() - t0))
            answers.append({"verdict": "undecided", "error": str(exc)})
            continue
        times.append(1e3 * (time.perf_counter() - t0))
        if ok:
            answers.append({"verdict": "yes", "monos": [list(e) for e in cert.basis.monos],
                            "G": cert.G.tolist()})
        else:
            answers.append({"verdict": "no"})
    return {"answers": answers}


RUNNERS = {"table": run_table, "psd-sweep": run_psd, "sos-decide": run_sos}


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy as np

    import circulant3
    from circulant3 import boundary, cli, eigen, sos, tables, tensor
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(circulant3.__file__).startswith(src + os.sep):
        print(f"circulant3 imported from {circulant3.__file__}, not {src}", file=sys.stderr)
        return 3
    mods = {"boundary": boundary, "cli": cli, "eigen": eigen, "sos": sos, "tables": tables,
            "tensor": tensor}
    result = {"setup_s": setup_s, "env": environment(circulant3, np)}
    if job["workload"] != "setup":
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        times = []
        t1 = time.perf_counter()
        result.update(RUNNERS[job["workload"]](job, mods, times))
        result["wall_s"] = time.perf_counter() - t1
        result["query_ms"] = times
        if tracer is not None:
            from tracer import call_cost

            result["spans"] = tracer.spans
            result["span_cost_s"] = call_cost()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
