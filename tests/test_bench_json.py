import json
import os
import subprocess
import sys

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
