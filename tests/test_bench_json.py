import json
import os
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "bench_json.py")


def _record(path, workload, trace, metrics, sha):
    record = {"workload": workload, "seed": 1, "seconds": 20, "trace": trace,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "attempted": 3, "failed": 0, "regressions": [], "passes": [],
              "env": {"nproc": 2, "source_sha256": sha, "git_commit": None}}
    path.write_text(json.dumps(record))
    return str(path)


def _run(tmp_path, *labelled):
    out = tmp_path / "BENCH_1.json"
    proc = subprocess.run([sys.executable, TOOL, "--out", str(out), *labelled],
                          capture_output=True, text=True, timeout=60)
    return proc, out


def test_two_records_give_runs_medians_and_quartiles(tmp_path):
    parent = _record(tmp_path / "p.json", "compressible_sweep", 0,
                     {"wall_s": (5.5, "s"), "pass_ratio": (1.0, "ratio")},
                     "aaa")
    change = _record(tmp_path / "c.json", "compressible_sweep", 0,
                     {"wall_s": (4.0, "s"), "pass_ratio": (1.0, "ratio")},
                     "bbb")
    proc, out = _run(tmp_path, f"parent={parent}", f"change={change}")
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())["workloads"]["compressible_sweep"]
    wall = bench["parent"]["end_to_end"]["wall_s"]
    assert wall == {"unit": "s", "runs": [5.5], "median": 5.5, "q1": 5.5,
                    "q3": 5.5}
    assert bench["change"]["end_to_end"]["wall_s"]["runs"] == [4.0]
    assert bench["change"]["end_to_end"]["pass_ratio"]["median"] == 1.0
    assert bench["parent"]["source_sha256"] == ["aaa"]
    assert bench["change"]["source_sha256"] == ["bbb"]
    assert bench["change"]["env"][0]["nproc"] == 2
    assert bench["change"]["correct"] is True
    assert bench["change"]["per_layer_median"] == {}


def test_runs_keep_order_and_traced_layers_take_medians(tmp_path):
    args = []
    for i, wall in enumerate((3.0, 1.0, 2.0, 4.0)):
        path = _record(tmp_path / f"u{i}.json", "w", 0, {"wall_s": (wall, "s")},
                       "aaa")
        args.append(f"parent={path}")
    for i, load_s in enumerate((0.5, 0.9, 0.7)):
        path = _record(tmp_path / f"t{i}.json", "w", 1,
                       {"compressible.load_s": (load_s, "s")}, "aaa")
        args.append(f"parent={path}")
    proc, out = _run(tmp_path, *args)
    assert proc.returncode == 0, proc.stderr
    side = json.loads(out.read_text())["workloads"]["w"]["parent"]
    wall = side["end_to_end"]["wall_s"]
    assert wall["runs"] == [3.0, 1.0, 2.0, 4.0]
    assert (wall["q1"], wall["median"], wall["q3"]) == (1.75, 2.5, 3.25)
    assert side["per_layer_median"] == {"compressible.load_s": 0.7}
    assert side["traced_runs"] == 3
    assert side["source_sha256"] == ["aaa"]


def test_unlabelled_record_is_rejected(tmp_path):
    path = _record(tmp_path / "p.json", "w", 0, {"wall_s": (1.0, "s")}, "aaa")
    proc, out = _run(tmp_path, f"baseline={path}")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: expected parent=PATH or change=PATH")
    assert not out.exists()


def _pairs(tmp_path, parent, change, metric="wall_s", unit="s"):
    """Alternating parent/change records of one metric on workload 'w'."""
    args = []
    for i, (p, c) in enumerate(zip(parent, change)):
        args.append("parent=" + _record(tmp_path / f"p{i}.json", "w", 0,
                                        {metric: (p, unit)}, "aaa"))
        args.append("change=" + _record(tmp_path / f"c{i}.json", "w", 0,
                                        {metric: (c, unit)}, "bbb"))
    proc, out = _run(tmp_path, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["workloads"]["w"]["verdict"], proc


PARENT_WALL = [2.0, 2.2, 2.4, 2.6, 2.8, 3.0, 3.2, 3.4, 3.6, 3.8]


def test_ten_won_pairs_beyond_the_parent_spread_are_a_gain(tmp_path):
    change = [p - 1.5 for p in PARENT_WALL]
    verdicts, proc = _pairs(tmp_path, PARENT_WALL, change)
    v = verdicts["wall_s"]
    assert (v["pairs"], v["wins"]) == (10, 10)
    assert v["parent_median"] == pytest.approx(2.9)
    assert v["change_median"] == pytest.approx(1.4)
    assert v["parent_iqr"] == pytest.approx(0.9)
    assert v["gain"] is True and v["regressed"] is False
    assert "w wall_s: 10/10 wins, median 2.9 -> 1.4 (parent IQR 0.9): gain" \
        in proc.stdout


@pytest.mark.parametrize("change, wins", [
    # every pair won, but by less than the parent's quartile distance
    ([p - 0.5 for p in PARENT_WALL], 10),
    # a clear median gain, but two pairs lost
    ([p - 1.5 for p in PARENT_WALL[:8]] + [9.0, 9.0], 8),
])
def test_no_gain_without_both_wins_and_median_gap(tmp_path, change, wins):
    v = _pairs(tmp_path, PARENT_WALL, change)[0]["wall_s"]
    assert v["wins"] == wins
    assert v["gain"] is False and v["regressed"] is False


def test_fewer_than_ten_pairs_claim_no_gain(tmp_path):
    parent = PARENT_WALL[:9]
    v = _pairs(tmp_path, parent, [p - 1.5 for p in parent])[0]["wall_s"]
    assert (v["pairs"], v["wins"]) == (9, 9)
    assert v["gain"] is False


def test_pairs_follow_command_line_order(tmp_path):
    # sorted, the change would win both pairs; in order it wins one, and a
    # tie counts for neither side
    v = _pairs(tmp_path, [1.0, 5.0, 3.0], [2.0, 4.0, 3.0])[0]["wall_s"]
    assert (v["pairs"], v["wins"]) == (3, 1)


@pytest.mark.parametrize("metric, unit, parent, change, regressed", [
    ("wall_s", "s", 2.0, 2.6, True),         # bound 0.25: +30% regresses
    ("wall_s", "s", 2.0, 2.4, False),        # +20% is inside the bound
    ("pass_ratio", "ratio", 1.0, 10 / 13, True),   # higher is better
    ("pass_ratio", "ratio", 10 / 13, 1.0, False),
])
def test_regression_is_judged_against_the_benchmark_bound(
        tmp_path, metric, unit, parent, change, regressed):
    v = _pairs(tmp_path, [parent] * 10, [change] * 10, metric, unit)[0][metric]
    assert v["regressed"] is regressed


def test_unpaired_runs_are_rejected(tmp_path):
    args = ["parent=" + _record(tmp_path / f"p{i}.json", "w", 0,
                                {"wall_s": (1.0, "s")}, "aaa")
            for i in range(2)]
    args.append("change=" + _record(tmp_path / "c.json", "w", 0,
                                    {"wall_s": (1.0, "s")}, "bbb"))
    proc, out = _run(tmp_path, *args)
    assert proc.returncode == 2
    assert "w: 2 parent and 1 change untraced records cannot be paired" \
        in proc.stderr
    assert not out.exists()
