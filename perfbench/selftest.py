#!/usr/bin/env python3
"""Tiny self-test of perfbench/run.py's metric and reference logic.

    python3 perfbench/selftest.py

It needs no build and runs in well under a second. It feeds canned harness
output and canned server responses through the real metric and checking
code, and fails if:
  - a workload does not measure a metric named in BENCHMARK.json, in its
    untraced or traced output (per-layer metrics it cannot reach are
    declared in run.UNREACHED);
  - a perturbed reference is not counted as a failed operation;
  - a traced fig3-sweep pass passes whose lanes' busy time misses its CPU
    time, or whose spans split the time between the layers wrongly;
  - serve-open's rates do not come from the server's counters;
  - the offline workloads' timings are not scaled to the host's nominal
    speed by the host-speed probe.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

LAYERS = {"busy_s": 4.0, "outer_s": 3.0, "inner_s": 2.0, "trace_s": 0.1,
          "inner_span_s": 2.0, "logical": 1000, "miss_forwards": 400,
          "forward_calls": 100, "forward_images": 700,
          "useful_forwards": 600, "nesting_errors": 0, "orphan_forwards": 0}
SETUP = {"total_s": 0.01, "victim_load_s": 0.002, "testset_s": 0.005,
         "rehydrate_s": 0.003}


def sweep(attack, traced, wall):
    result = {"success": 3, "failure": 2, "discarded": 1, "queries": 1000,
              "images": 6, "digest": "00000000000000%02x" % len(attack)}
    return {"attack": attack, "traced": traced,
            "probe_s": run.PROBE_NOMINAL_S,
            "usage": {"wall_s": wall, "cpu_s": 4.0 * wall, "max_rss_mb": 9},
            "result": result, "layers": LAYERS if traced else None}


def fig3_raw():
    sweeps = [sweep(a, t, 1.0 + 0.1 * i)
              for t in (False, True)
              for i, a in enumerate(("oppsla", "sparse-rs", "suopa"))]
    return {"setups": [SETUP] * 3, "sweeps": sweeps, "max_rss_mb": 200.0}


def fig3_ref(raw):
    return {s["attack"]: {k: s["result"][k] for k in
                          ("success", "failure", "discarded", "queries",
                           "digest")}
            for s in raw["sweeps"]}


def synth_raw():
    reps = [{"class": c, "traced": t, "probe_s": run.PROBE_NOMINAL_S,
             "usage": {"wall_s": 10.0 + c, "cpu_s": 35.0, "max_rss_mb": 9},
             "program": f"program {c}\n", "avg_queries": 5.0 + c,
             "queries": 400000, "candidates": 80, "exchanges": 2,
             "train_images": 8, "cache_hits": 300000, "cache_misses": 100000,
             "layers": LAYERS if t else None}
            for t in (False, True) for c in (0, 1)]
    return {"setups": [{"total_s": 0.001, "victim_load_s": 0.001}] * 3,
            "reps": reps, "max_rss_mb": 140.0}


def synth_ref(raw):
    return {str(r["class"]): {k: r[k] for k in ("program", "avg_queries",
                                                "candidates", "exchanges")}
            for r in raw["reps"]}


def run_workload(workload, fn, raw, ref, trace):
    run.run_harness = lambda *a, **k: copy.deepcopy(raw)
    run.load_reference = lambda name: copy.deepcopy(ref)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        run.report(workload, *fn(1, 1, trace), trace)
    return json.loads(out.getvalue().splitlines()[-1])


def check(cond, msg):
    if not cond:
        raise SystemExit(f"selftest: FAIL: {msg}")


def check_names(result, trace, workload):
    want = PER_LAYER if trace else END_TO_END
    got = set(result["metrics"])
    check(got == want, f"{workload} trace={trace}: missing "
          f"{sorted(want - got)}, unexpected {sorted(got - want)}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], float) and m["unit"],
              f"{workload}: {name} lacks a value or unit")


def test_offline(workload, fn, raw, make_ref, field):
    ref = make_ref(raw)
    for trace in (0, 1):
        res = run_workload(workload, fn, raw, ref, trace)
        check_names(res, trace, workload)
        check(res["correct"] and res["failed"] == 0,
              f"{workload}: matching reference counted as a failure")
    key = next(iter(ref))
    bad = copy.deepcopy(ref)
    bad[key][field] = bad[key][field] + 1 if isinstance(
        bad[key][field], (int, float)) else bad[key][field] + "x"
    res = run_workload(workload, fn, raw, bad, 0)
    check(not res["correct"] and res["failed"] >= 1,
          f"{workload}: perturbed reference ({key}.{field}) not counted")


class FakeServer:
    """Answers the open-loop client's requests from canned bytes."""

    def __init__(self, artifact):
        self.artifact = artifact

    def request(self, method, path, body=None):
        if path.endswith("/result"):
            return 200, self.artifact
        return 200, json.dumps({"state": "done"}).encode()


def test_serve():
    artifact = b"OPWF canned artifact"
    good = {"sparse-rs/0": {"sha256": hashlib.sha256(artifact).hexdigest(),
                            "queries": 10}}
    bad = {"sparse-rs/0": {"sha256": hashlib.sha256(b"x").hexdigest(),
                           "queries": 10}}
    for refs, want_failed in ((good, 0), (bad, 1)):
        client = run.OpenLoop(FakeServer(artifact), refs)
        out = {"failed": 0, "done": 0, "latency_ms": [], "result_bytes": 0}
        with contextlib.redirect_stderr(io.StringIO()):
            client.poll(1, [0.0, 0.0, "sparse-rs", 0], out)
        check(out["failed"] == want_failed,
              f"serve-open: reference check counted {out['failed']} "
              f"failures, expected {want_failed}")

    jobs = run.schedule(1, 2)
    check(len(jobs) == round(run.SERVE_RATE * 2),
          "serve-open: schedule size")
    check(run.schedule(1, 2) == jobs and run.schedule(2, 2) != jobs,
          "serve-open: schedule is not a function of the seed")
    # Two workers spent 4 s running shards for 10 jobs: 5 jobs/s capacity,
    # whatever the window.
    before = {"oppsla_serve_shard_exec_ms_sum": 500.0,
              "oppsla_serve_jobs_completed_total": 1.0,
              "oppsla_engine_queries_total": 50.0}
    after = {"oppsla_serve_shard_exec_ms_sum": 4500.0,
             "oppsla_serve_jobs_completed_total": 11.0,
             "oppsla_engine_queries_total": 1050.0}
    p = {"sent": 10, "done": 10, "failed": 0, "rejected": 0,
         "latency_ms": [float(i) for i in range(10)], "lag_ms": [0.1] * 10,
         "result_bytes": 2500, "window_s": 1.0, "peak_rss_mb": 90.0,
         "probes": [{"probe_s": run.PROBE_NOMINAL_S}],
         "scrape": ((before, {}), (after, {})),
         "spans": [("submit", 0.0, 0.001, -1), ("status", 0.0, 0.0005, 1)]}
    with contextlib.redirect_stderr(io.StringIO()):
        metrics, layers = run.serve_metrics([p, p], [0.25, 0.2, 0.3], True)
    want = {"jobs_per_s": 5.0, "images_per_s": 5.0 * run.SERVE_SLICE,
            "queries_per_s": 500.0, "setup_s": 0.25}
    check(all(abs(metrics[k] - v) < 1e-9 for k, v in want.items()),
          f"serve-open: metrics {metrics} differ from {want}: the rates are "
          f"the workers' capacity from the scraped counters, setup_s the "
          f"median start")
    # Twice the shard time and latency on a host twice as slow: the same.
    slow = dict(p, probes=[{"probe_s": 2 * run.PROBE_NOMINAL_S}],
                latency_ms=[2 * x for x in p["latency_ms"]],
                scrape=((before, {}), (dict(
                    after, oppsla_serve_shard_exec_ms_sum=8500.0), {})))
    with contextlib.redirect_stderr(io.StringIO()):
        got, _ = run.serve_metrics([slow], [0.2], False)
    check(all(abs(got[k] - metrics[k]) < 1e-9 * abs(metrics[k])
              for k in ("jobs_per_s", "queries_per_s", "job_ms_p50")),
          "serve-open: rates and latency are not scaled by the host probe")
    for trace in (0, 1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.report("serve-open", metrics, layers, 20, 0, True, trace)
        check_names(json.loads(out.getvalue().splitlines()[-1]), trace,
                    "serve-open")


def test_reconcile():
    bad_layers = {
        "busy time that misses the CPU time": {"busy_s": 6.0},
        "a forward span outside its parent": {"nesting_errors": 1},
        "a forward outside any attack call": {"orphan_forwards": 1},
        "lane forward totals that disagree with the spans":
            {"inner_span_s": 1.5},
        "engine time below its forwards": {"outer_s": 1.5},
        "busy time below engine time": {"outer_s": 3.95, "busy_s": 4.0},
    }
    for what, change in bad_layers.items():
        raw = fig3_raw()
        for s in raw["sweeps"]:
            if s["traced"]:
                s["layers"] = dict(LAYERS, **change)
        res = run_workload("fig3-sweep", run.fig3, raw, fig3_ref(raw), 1)
        check(not res["correct"], f"fig3-sweep: {what} passes the check")


def test_host_speed():
    """On a host twice as slow, where every timed unit and every probe
    takes twice as long, the figures stay the same."""
    for workload, fn, raw, make_ref, units in (
            ("fig3-sweep", run.fig3, fig3_raw(), fig3_ref, "sweeps"),
            ("synth-cold", run.synth, synth_raw(), synth_ref, "reps")):
        base = run_workload(workload, fn, raw, make_ref(raw), 0)["metrics"]
        slow = copy.deepcopy(raw)
        for u in slow[units]:
            u["probe_s"] = 2 * run.PROBE_NOMINAL_S
            u["usage"]["wall_s"] *= 2
        got = run_workload(workload, fn, slow, make_ref(raw), 0)["metrics"]
        for name in ("queries_per_s", "jobs_per_s", "job_ms_p50"):
            check(abs(got[name]["value"] - base[name]["value"])
                  <= 1e-9 * base[name]["value"],
                  f"{workload}: {name} is not scaled by the host probe")


def main():
    test_reconcile()
    test_offline("fig3-sweep", run.fig3, fig3_raw(), fig3_ref, "queries")
    test_offline("fig3-sweep", run.fig3, fig3_raw(), fig3_ref, "digest")
    test_offline("synth-cold", run.synth, synth_raw(), synth_ref, "program")
    test_offline("synth-cold", run.synth, synth_raw(), synth_ref,
                 "avg_queries")
    test_serve()
    test_host_speed()
    print("selftest: ok")


if __name__ == "__main__":
    main()
