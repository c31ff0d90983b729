"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD TRACE OUT_DIR

TRACE is 0 or 1 and OUT_DIR an empty directory for the command lines' CSV
and SVG files.  The worker imports ``elastweak.cli`` before anything else of
its own, runs the invocations through ``elastweak.cli.main`` one after
another, and prints one JSON object: pass wall time, peak resident memory,
each invocation's exit code, error and CSV rows, the environment, and (when
tracing) the spans.
Run it with ``src`` on PYTHONPATH; ``run.py`` does that.
"""

import sys
import time

started = time.perf_counter()
import elastweak.cli  # noqa: E402
import_s = time.perf_counter() - started

import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer, installed_wrappers, layer_metrics, span_records  # noqa: E402
from workloads import WORKLOADS, option  # noqa: E402


def run_invocation(argv, out_dir):
    """Run one command line; returns (exit code or None, error text)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = elastweak.cli.main(argv + ["--out", out_dir])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a measured outcome, not a stop
        return None, f"{type(exc).__name__}: {exc}"
    error = sink.getvalue().strip().splitlines()[-1:] if code else []
    return code, error[0] if error else None


def read_rows(out_dir):
    rows = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), newline="") as fh:
                rows += list(csv.DictReader(fh))
    return rows


def environment():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(workload, trace, out_root):
    invocations = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    elif installed_wrappers():
        raise RuntimeError("tracing wrappers installed in an untraced pass")
    results = []
    t0 = time.perf_counter()
    for i, argv in enumerate(invocations):
        out_dir = os.path.join(out_root, f"inv{i}")
        os.makedirs(out_dir)
        if tracer:
            tracer.invocation, tracer.n = i, None
        t = time.perf_counter()
        code, error = run_invocation(argv, out_dir)
        results.append({"invocation": i, "code": code, "error": error,
                        "wall_s": time.perf_counter() - t})
    wall_s = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    leftover = installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers left installed: {leftover[:5]}")
    for res in results:
        res["rows"] = read_rows(os.path.join(out_root, f"inv{res['invocation']}"))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {"import_s": import_s, "wall_s": wall_s,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "invocations": results, "env": environment()}
    if tracer:
        ks = {i: int(option(argv, "k") or 1) for i, argv in enumerate(invocations)}
        out["layers"] = layer_metrics(tracer.spans)
        out["spans"] = span_records(tracer.spans, workload, ks)
    return out


if __name__ == "__main__":
    name, trace_arg, out_arg = sys.argv[1:4]
    result = main(name, trace_arg == "1", out_arg)
    sys.stdout.write(json.dumps(result) + "\n")
