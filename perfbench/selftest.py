#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Checks, at tiny sizes (--tiny):
  * BENCHMARK.json has the expected shape and limits;
  * every workload runs untraced and traced, passes its correctness gate
    (correct, failed == 0) and prints exactly the metrics BENCHMARK.json
    declares for that mode, each named [A-Za-z0-9_.-]+ and carrying a unit;
  * the traced run's Chrome trace file is valid JSON whose spans are
    balanced (closed, non-negative duration), parented (every parent id
    exists), nested in time within a parent on the same thread, and whose
    serving spans share a request id.
Exits non-zero on the first failing check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    sys.stderr.write("selftest FAILED: %s\n" % msg)
    sys.exit(1)


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        fail("BENCHMARK.json keys: %s" % sorted(spec))
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            fail("workload entry %s" % w)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            fail("metric name/unit %s" % m)
        if m["name"] in names:
            fail("duplicate metric %s" % m["name"])
        names.add(m["name"])
        if m["better"] not in ("higher", "lower"):
            fail("metric better %s" % m)
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail("end_to_end entry %s" % m)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must carry the largest bound")
    return spec


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail("%s exited %d" % (" ".join(cmd), proc.returncode))
    res = json.loads(proc.stdout.strip().split("\n")[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(res))
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        fail("%s trace=%d failed its correctness gate: %s" %
             (workload, trace, {k: res[k] for k in ("correct", "attempted", "failed")}))
    for name, m in res["metrics"].items():
        if not NAME.match(name) or set(m) != {"value", "unit"}:
            fail("metric %s: %s" % (name, m))
        if not UNIT.match(m["unit"]) or not isinstance(m["value"], (int, float)):
            fail("metric %s has no unit or no number: %s" % (name, m))
    return res


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    if not events:
        fail("empty trace %s" % path)
    by_id = {}
    for e in events:
        if e.get("ph") != "X" or e["dur"] < 0:
            fail("unbalanced span %s" % e)
        sid = e["args"]["id"]
        if sid in by_id:
            fail("duplicate span id %d" % sid)
        by_id[sid] = e
    slack = 5.0  # microseconds of clock rounding
    reqs_submit, reqs_done = set(), set()
    for e in events:
        parent = e["args"]["parent"]
        if parent != 0:
            p = by_id.get(parent)
            if p is None:
                fail("span %s has a missing parent %d" % (e["name"], parent))
            if e["ts"] + slack < p["ts"] or \
                    e["ts"] + e["dur"] > p["ts"] + p["dur"] + slack:
                fail("span %s escapes its parent %s" % (e["name"], p["name"]))
        if e["name"] == "serve.submit":
            reqs_submit.add(e["args"]["req"])
        if e["name"] == "serve.request":
            reqs_done.add(e["args"]["req"])
    if not reqs_done or not reqs_done <= reqs_submit or 0 in reqs_done:
        fail("serving spans do not share request ids")
    return len(events)


def main():
    spec = check_spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for w in [w["name"] for w in spec["workloads"]]:
        res = run(w, 0)
        if set(res["metrics"]) != e2e:
            fail("%s end-to-end metrics differ: %s" %
                 (w, sorted(set(res["metrics"]) ^ e2e)))
        res = run(w, 1)
        if set(res["metrics"]) != layers:
            fail("%s per-layer metrics differ: %s" %
                 (w, sorted(set(res["metrics"]) ^ layers)))
        n = check_trace(os.path.join(ROOT, ".bench_build", "trace",
                                     "%s-seed7.json" % w))
        print("selftest: %s ok (%d attempted, %d spans)" % (w, res["attempted"], n))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
