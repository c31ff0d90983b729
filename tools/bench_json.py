"""Summarize ``perfbench/run.py`` records as one committed ``BENCH_<n>.json``.

Each record named on the command line carries a label, ``parent`` or
``change``, for the tree it was measured on::

    python3 tools/bench_json.py --out BENCH_10.json \\
        parent=runs/p1.json change=runs/c1.json parent=runs/p2.json ...

For every workload and side the output holds, from the untraced records,
each end-to-end metric's value per run (in command-line order), their median
and quartiles; from the traced records, the median of each per-layer metric
over the runs; and the distinct ``env`` records and source hashes seen.
"""

import argparse
import json
import statistics
import sys

SIDES = ("parent", "change")


class BenchInputError(ValueError):
    """A malformed argument or record."""


def summary(values):
    """Runs, median and quartiles (inclusive method) of a metric."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"runs": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def _distinct(items):
    out = []
    for item in items:
        if item not in out:
            out.append(item)
    return out


def load(labelled):
    """[(side, record)] from 'side=path' arguments."""
    out = []
    for arg in labelled:
        side, sep, path = arg.partition("=")
        if not sep or side not in SIDES:
            raise BenchInputError(f"expected parent=PATH or change=PATH, "
                                  f"got {arg!r}")
        with open(path) as fh:
            record = json.load(fh)
        for key in ("workload", "trace", "metrics", "env"):
            if key not in record:
                raise BenchInputError(f"{path}: not a perfbench record "
                                      f"(no {key!r})")
        out.append((side, record))
    return out


def side_summary(records):
    """Summary of one workload on one side from its records."""
    untraced = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    names = _distinct(name for r in untraced for name in r["metrics"])
    end_to_end = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in untraced
                  if name in r["metrics"]]
        end_to_end[name] = {"unit": untraced[0]["metrics"][name]["unit"],
                            **summary(values)}
    layers = _distinct(name for r in traced for name in r["metrics"])
    per_layer = {name: statistics.median(r["metrics"][name]["value"]
                                         for r in traced
                                         if name in r["metrics"])
                 for name in layers}
    return {"traced_runs": len(traced),
            "correct": all(not r.get("regressions") for r in records),
            "end_to_end": end_to_end, "per_layer_median": per_layer,
            "env": _distinct(r["env"] for r in records),
            "source_sha256": _distinct(r["env"].get("source_sha256")
                                       for r in records)}


def bench(labelled_records):
    workloads = _distinct(r["workload"] for _, r in labelled_records)
    out = {}
    for workload in workloads:
        out[workload] = {}
        for side in SIDES:
            records = [r for s, r in labelled_records
                       if s == side and r["workload"] == workload]
            if records:
                out[workload][side] = side_summary(records)
    return {"workloads": out}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("records", nargs="+", metavar="SIDE=PATH",
                        help="a perfbench record labelled parent or change")
    args = parser.parse_args(argv)
    try:
        result = bench(load(args.records))
    except (OSError, BenchInputError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
