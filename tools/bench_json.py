"""Summarize ``perfbench/run.py`` records as one committed ``BENCH_<n>.json``.

Each record named on the command line carries a label, ``parent`` or
``change``, for the tree it was measured on::

    python3 tools/bench_json.py --out BENCH_10.json \\
        parent=runs/p1.json change=runs/c1.json parent=runs/p2.json ...

For every workload and side the output holds, from the untraced records,
each end-to-end metric's value per run (in command-line order), their median
and quartiles; from the traced records, the median of each per-layer metric
over the runs; and the distinct ``env`` records and source hashes seen.

A workload measured on both sides also gets a verdict per end-to-end metric
of ``BENCHMARK.json``: the i-th untraced parent record is paired with the
i-th untraced change record.  The change wins a pair when its value is
better (ties count for neither side).  It gains when it wins at least nine
tenths of at least ten pairs and its median is better than the parent's by
more than the parent's quartile distance.  It regressed when its median is
worse than the parent's by more than the metric's bound, a fraction of the
parent's median.  ``BENCHMARK.json`` is read for each metric's ``better``
and ``bound`` only.
"""

import argparse
import json
import os
import statistics
import sys

SIDES = ("parent", "change")
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


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


def load_rules():
    """{metric: (better, bound)} for the end-to-end metrics of BENCHMARK.json."""
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(parent_runs, change_runs, better, bound):
    """Pair verdict of one metric on one workload (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0

    def improvement(parent, change):
        return sign * (parent - change)

    pairs = list(zip(parent_runs, change_runs))
    wins = sum(improvement(p, c) > 0 for p, c in pairs)
    parent, change = summary(parent_runs), summary(change_runs)
    iqr = parent["q3"] - parent["q1"]
    step = improvement(parent["median"], change["median"])
    return {"pairs": len(pairs), "wins": wins,
            "parent_median": parent["median"],
            "change_median": change["median"], "parent_iqr": iqr,
            "gain": (len(pairs) >= MIN_PAIRS
                     and wins >= MIN_WIN_SHARE * len(pairs) and step > iqr),
            "regressed": -step > bound * abs(parent["median"])}


def workload_verdicts(workload, sides, rules):
    """{metric: verdict} for one workload measured on both sides."""
    runs = {side: [r for r in records if not r["trace"]]
            for side, records in sides.items()}
    if len(runs["parent"]) != len(runs["change"]):
        raise BenchInputError(
            f"{workload}: {len(runs['parent'])} parent and "
            f"{len(runs['change'])} change untraced records cannot be paired")
    out = {}
    for name, (better, bound) in rules.items():
        values = {side: [r["metrics"][name]["value"] for r in rs
                         if name in r["metrics"]]
                  for side, rs in runs.items()}
        if values["parent"] and len(values["parent"]) == len(values["change"]):
            out[name] = verdict(values["parent"], values["change"], better,
                                bound)
    return out


def bench(labelled_records, rules):
    workloads = _distinct(r["workload"] for _, r in labelled_records)
    out = {}
    for workload in workloads:
        out[workload] = {}
        sides = {}
        for side in SIDES:
            records = [r for s, r in labelled_records
                       if s == side and r["workload"] == workload]
            if records:
                sides[side] = records
                out[workload][side] = side_summary(records)
        if len(sides) == len(SIDES):
            out[workload]["verdict"] = workload_verdicts(workload, sides,
                                                         rules)
    return {"workloads": out}


def report_lines(result):
    """One human-readable line per workload and verdict."""
    for workload, entry in result["workloads"].items():
        for name, v in entry.get("verdict", {}).items():
            outcome = ("gain" if v["gain"] else
                       "REGRESSED" if v["regressed"] else "no gain")
            yield (f"{workload} {name}: {v['wins']}/{v['pairs']} wins, median "
                   f"{v['parent_median']:.4g} -> {v['change_median']:.4g} "
                   f"(parent IQR {v['parent_iqr']:.3g}): {outcome}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("records", nargs="+", metavar="SIDE=PATH",
                        help="a perfbench record labelled parent or change")
    args = parser.parse_args(argv)
    try:
        result = bench(load(args.records), load_rules())
    except (OSError, BenchInputError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line in report_lines(result):
        print(line)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
