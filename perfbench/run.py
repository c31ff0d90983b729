"""Benchmark of the ``elastweak`` command line: wall time, set-up time, peak
memory and failed cases per workload, plus a traced per-layer breakdown.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S --trace 0

Every pass of a workload runs in a fresh worker process (one at a time), and
every CSV row it writes is checked against ``reference.json``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced passes.  The full record of a run, spans included, is written to
``perfbench/out/``.  Exit status: 0 measured, 1 benchmark error (a worker
crashed, a repeatable count changed, wrappers stayed installed), 2 the
checkout has no ``src/elastweak``.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from tracer import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170
PROBE = "import elastweak.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


class BenchmarkError(RuntimeError):
    """The run cannot yield a measurement."""


def nproc():
    return len(os.sched_getaffinity(0))


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # With random string hashing, dict and set layouts change from process to
    # process, and so does glibc's heap reuse: peak RSS of one pass then
    # jumps between distinct levels (293, 407 or 417 MiB on compressible_sweep).
    env["PYTHONHASHSEED"] = "0"
    threads = str(nproc())
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
    return env


def mem_total_mb():
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    return None


def source_fingerprint():
    """Git commit when the checkout is a repository, and a hash of the source."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "elastweak")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        top, commit = out.stdout.split()
        commit = commit if os.path.samefile(top, ROOT) else None
    except (OSError, ValueError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def setup_probe(env):
    """Seconds from starting a fresh interpreter until ``import elastweak.cli`` returns."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    if line != "ready\n" or proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


def run_pass(workload, traced, env):
    """One pass in a fresh worker; returns the worker's JSON result."""
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        # ASLR off for the worker: with randomized layout, where glibc's heap
        # can grow differs, and peak RSS of a cook_membrane pass jumped
        # between 492 and 517 MiB.
        cmd = ["setarch", platform.machine(), "--addr-no-randomize",
               sys.executable, os.path.join(HERE, "worker.py"), workload,
               "1" if traced else "0", work]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_passes(workload, traced, seconds, env):
    # Passes (True = traced) made before the time budget counts: a traced run
    # needs an untraced pass for the tracing overhead and two traced ones to
    # check that the exact counts repeat.
    plan = [True, False, True] if traced else [False]
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while plan or time.perf_counter() - start + longest <= seconds:
        kind = plan.pop(0) if plan else (traced and not passes[-1]["traced"])
        t0 = time.perf_counter()
        result = run_pass(workload, kind, env)
        longest = max(longest, time.perf_counter() - t0)
        result["traced"] = kind
        passes.append(result)
    return passes


def check_passes(workload, passes, reference):
    """Check every case of every pass; returns (attempted, failed, regressions)."""
    invocations = WORKLOADS[workload]
    attempted = failed = 0
    regressions = []
    for p in passes:
        for res in p["invocations"]:
            i = res["invocation"]
            verdicts = oracle.check_invocation(invocations[i], res, reference[i])
            for j, (problems, failed_at_seed) in enumerate(verdicts):
                attempted += 1
                if problems:
                    failed += 1
                    if not failed_at_seed:
                        regressions.append(f"invocation {i} row {j}: {'; '.join(problems)}")
    return attempted, failed, regressions


def tail_percentile(samples):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100.0 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def describe(name, samples, unit):
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} {unit}" if tail
                 else "no percentile with ten samples beyond it")
    return f"  {name:<12} {med:12.4f} {unit:<4} median of {len(samples)}, {tail_text}"


def end_to_end(setup, passes, attempted, failed):
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    lines = [describe("setup_s", setup, "s"), describe("wall_s", walls, "s"),
             describe("peak_rss_mb", rss, "MiB"),
             f"  {'fail_ratio':<12} {failed / attempted:12.4f}      "
             f"{failed} of {attempted} cases failed"]
    return metrics, lines


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    for name in EXACT_COUNTS:
        values = {p["layers"][name] for p in traced}
        if len(values) != 1:
            raise BenchmarkError(f"{name} differs between passes: {sorted(values)}")
    metrics = {}
    for name in traced[0]["layers"]:
        unit = ("s" if name.endswith("_s")
                else "ratio" if name == "solvers.residual_max" else "count")
        metrics[name] = {"value": statistics.median(p["layers"][name] for p in traced),
                         "unit": unit}
    wall_t = statistics.median(p["wall_s"] for p in traced)
    wall_u = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.wall_s"] = {"value": wall_t, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall_t - wall_u, "unit": "s"}
    total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    lines = [f"  {k:<34} {v['value']:14.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"  module self time covers {total:.3f} s of the traced wall "
                 f"{wall_t:.3f} s (untraced {wall_u:.3f} s)")
    return metrics, lines


def check_dofs_repeat(passes):
    seen = {}
    for p in passes:
        for res in p["invocations"]:
            dofs = tuple(r["dofs"] for r in res["rows"])
            if seen.setdefault(res["invocation"], dofs) != dofs:
                raise BenchmarkError(f"dofs of invocation {res['invocation']} "
                                     "differ between passes")


def run_workload(workload, seed, seconds, traced, reference, env):
    setup = [] if traced else [setup_probe(env) for _ in range(SETUP_PROBES)]
    passes = run_passes(workload, traced, seconds, env)
    check_dofs_repeat(passes)
    attempted, failed, regressions = check_passes(workload, passes, reference)
    if traced:
        metrics, lines = per_layer(passes)
    else:
        metrics, lines = end_to_end(setup, passes, attempted, failed)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "setup_s": setup,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "regressions": regressions, "passes": passes}
    return record, lines


def environment(passes):
    return {"nproc": nproc(), "mem_total_mb": mem_total_mb(),
            **passes[0]["env"], **source_fingerprint()}


def save(name, record):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(record, fh)
    return path


def record_reference(names, env):
    """Write reference.json from one untraced pass of each named workload."""
    reference = oracle.load_reference() if os.path.exists(oracle.REFERENCE) else {}
    for workload in names:
        result = run_pass(workload, False, env)
        reference[workload] = [
            oracle.reference_rows(WORKLOADS[workload][res["invocation"]], res)
            for res in result["invocations"]]
    with open(oracle.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {oracle.REFERENCE}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from one pass instead of measuring")
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    if not os.path.isfile(os.path.join(SRC, "elastweak", "cli.py")):
        print(f"error: no elastweak source under {SRC}", file=sys.stderr)
        return 2
    env = worker_env()
    try:
        if args.record_reference:
            record_reference(names, env)
            return 0
        reference = oracle.load_reference()
        results = {}
        for workload in names:
            record, lines = run_workload(workload, args.seed, args.seconds,
                                         bool(args.trace), reference[workload], env)
            record["env"] = environment(record["passes"])
            path = save(f"{workload}-seed{args.seed}-trace{args.trace}.json", record)
            passes = record["passes"]
            print(f"{workload}: seed {args.seed}, {len(passes)} passes "
                  f"({sum(p['traced'] for p in passes)} traced), record {path}")
            print("\n".join(lines))
            for problem in record["regressions"]:
                print(f"  REGRESSION {problem}")
            e = record["env"]
            print(f"  env: nproc {e['nproc']}, MemTotal {e['mem_total_mb']:.0f} MiB, "
                  f"python {e['python']}, numpy {e['numpy']}, scipy {e['scipy']}, "
                  f"{e['blas']} x{e['blas_threads']} threads, "
                  f"commit {e['git_commit']}, source {e['source_sha256'][:12]}")
            results[workload] = {"correct": not record["regressions"],
                                 "attempted": record["attempted"],
                                 "failed": record["failed"],
                                 "metrics": record["metrics"]}
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
